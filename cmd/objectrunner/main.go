// Command objectrunner infers a wrapper for a structured Web source and
// extracts the objects described by an SOD.
//
// Usage:
//
//	objectrunner -sod concert.sod -pages './pages/*.html' \
//	    -dict Artist=artists.txt -dict Theater=theaters.txt [-json]
//
// The SOD file holds a Structured Object Description in the DSL form,
// e.g.
//
//	tuple {
//	    artist: instanceOf(Artist)
//	    date: date
//	    location: tuple { theater: instanceOf(Theater), address: address ? }
//	}
//
// Dictionary files list one instance per line (optionally "value<TAB>confidence").
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"objectrunner"
	"objectrunner/internal/obs"
)

type dictFlags map[string]string

func (d dictFlags) String() string { return fmt.Sprint(map[string]string(d)) }

func (d dictFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("expected Class=file, got %q", v)
	}
	d[parts[0]] = parts[1]
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "objectrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	sodPath := flag.String("sod", "", "path to the SOD file (required)")
	pagesGlob := flag.String("pages", "", "glob of source HTML pages (required)")
	dicts := dictFlags{}
	flag.Var(dicts, "dict", "Class=file dictionary (repeatable)")
	asJSON := flag.Bool("json", false, "emit objects as JSON")
	dedupe := flag.Bool("dedup", true, "drop duplicate objects")
	report := flag.Bool("report", false, "print the wrapper inference report to stderr")
	workers := flag.Int("workers", 0, "worker goroutines for per-page pipeline stages (0 = one per CPU)")
	saveWrapper := flag.String("save-wrapper", "", "persist the inferred wrapper to this file")
	loadWrapper := flag.String("load-wrapper", "", "load a persisted wrapper instead of inferring one")
	cacheDir := flag.String("wrapper-cache-dir", "", "wrapper cache directory: infer on first run, reuse the persisted wrapper afterwards")
	timeout := flag.Duration("timeout", 0, "abort inference and extraction after this long (0 = no limit)")
	obsCLI := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *sodPath == "" || *pagesGlob == "" {
		flag.Usage()
		return fmt.Errorf("-sod and -pages are required")
	}
	observer, obsCleanup, err := obsCLI.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsCleanup(); cerr != nil {
			fmt.Fprintln(os.Stderr, "objectrunner: observability cleanup:", cerr)
		}
	}()
	sodText, err := os.ReadFile(*sodPath)
	if err != nil {
		return err
	}
	cfg := objectrunner.DefaultConfig()
	cfg.Workers = *workers
	opts := []objectrunner.Option{objectrunner.WithConfig(cfg)}
	if observer != nil {
		opts = append(opts, objectrunner.WithObserver(observer))
	}
	// Sorted for a deterministic dictionary load (and error) order.
	classes := make([]string, 0, len(dicts))
	for class := range dicts {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		entries, err := readDictionary(dicts[class])
		if err != nil {
			return fmt.Errorf("dictionary %s: %w", class, err)
		}
		opts = append(opts, objectrunner.WithDictionary(class, entries))
	}
	ex, err := objectrunner.New(string(sodText), opts...)
	if err != nil {
		return err
	}

	files, err := filepath.Glob(*pagesGlob)
	if err != nil {
		return err
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("no pages match %q", *pagesGlob)
	}
	pages := make([]string, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		pages = append(pages, string(b))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	w, err := acquireWrapper(ctx, ex, pages, *loadWrapper, *cacheDir, *pagesGlob)
	if *report && w != nil {
		fmt.Fprintln(os.Stderr, w.Report())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrapper over %d pages: %s\n", len(pages), w.Describe())
	if *saveWrapper != "" {
		if err := objectrunner.SaveWrapperFile(w, *saveWrapper); err != nil {
			return fmt.Errorf("save wrapper: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrapper saved to %s\n", *saveWrapper)
	}

	perPage, err := w.ExtractStreamBatchContext(ctx, pages)
	if err != nil {
		return err
	}
	var objects []*objectrunner.Object
	for _, objs := range perPage {
		objects = append(objects, objs...)
	}
	if *dedupe {
		objects = objectrunner.Deduplicate(objects)
	}
	// Feed extractions back into the dictionaries (paper Eq. 4); in-process
	// only, but it closes the loop and reports enrichment in traces.
	ex.Enrich(objects, w.Score())
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(objectrunner.FlattenObjects(objects))
	}
	for i, o := range objects {
		fmt.Printf("%4d %s\n", i+1, o)
	}
	fmt.Fprintf(os.Stderr, "%d objects extracted\n", len(objects))
	return nil
}

// acquireWrapper resolves the wrapper by precedence: an explicitly loaded
// file, then the wrapper cache (keyed by the pages glob, inferring and
// persisting on a miss), then plain context-aware inference.
func acquireWrapper(ctx context.Context, ex *objectrunner.Extractor, pages []string, loadPath, cacheDir, sourceKey string) (*objectrunner.Wrapper, error) {
	if loadPath != "" {
		w, err := objectrunner.LoadWrapperFile(loadPath, ex)
		if err != nil {
			return nil, fmt.Errorf("load wrapper: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrapper loaded from %s\n", loadPath)
		return w, nil
	}
	if cacheDir != "" {
		svc := objectrunner.NewService(ex, objectrunner.StoreConfig{SpillDir: cacheDir})
		w, err := svc.Wrapper(ctx, sourceKey, pages)
		if err != nil {
			return w, err
		}
		if st := svc.Stats(); st.DiskHits > 0 {
			fmt.Fprintf(os.Stderr, "wrapper loaded from cache %s\n", cacheDir)
		}
		return w, nil
	}
	return ex.WrapContext(ctx, pages)
}

func readDictionary(path string) ([]objectrunner.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []objectrunner.Entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		conf := 0.9
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			if v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64); err == nil {
				conf = v
			}
			line = line[:i]
		}
		entries = append(entries, objectrunner.Entry{Value: line, Confidence: conf})
	}
	return entries, sc.Err()
}
