package wrapper

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"objectrunner/internal/obs"
	"objectrunner/internal/segment"
	"objectrunner/internal/sod"
	"objectrunner/internal/symtab"
	"objectrunner/internal/template"
)

// Versioned wrapper persistence: the full learned state of an inferred
// wrapper — template tree, canonical SOD binding, token-role descriptor
// tables, block key, support/conflict accounting and the EXPLAIN report —
// encodes to a self-describing stream and decodes to a wrapper whose
// Extract output is byte-identical to the original's. The paper's
// economics depend on this: one expensive Wrap amortizes over many pages
// only if the wrapper outlives the process that inferred it.
//
// Stream layout:
//
//	objectrunner-wrapper v<version> sha256=<hex>\n
//	<JSON payload>
//
// The header pins the format version (readers reject other versions) and
// carries a SHA-256 checksum of the payload, so truncated or corrupted
// spills are detected before a half-built wrapper can serve traffic.

// FormatMagic identifies the persistence stream.
const FormatMagic = "objectrunner-wrapper"

// FormatVersion is the stream version, the only one Decode accepts. v2
// introduced the wrapper-scoped symbol table: descriptor Value/Path
// strings are stored once in the Symbols list and referenced by id from
// the template tree. Spills are a cache, so a stream of any other
// version is ErrFormat, then a miss, then a re-infer.
const FormatVersion = 2

// ErrFormat reports a stream that is not a wrapper persistence stream, is
// of an unsupported version, or fails its checksum.
var ErrFormat = errors.New("wrapper: invalid persistence stream")

// ErrSODMismatch reports a persisted wrapper loaded against an extractor
// whose SOD differs from the one the wrapper was inferred for.
var ErrSODMismatch = errors.New("wrapper: persisted wrapper was inferred for a different SOD")

// persisted is the JSON payload of the stream.
type persisted struct {
	SODSig          string                      `json:"sod_sig"`
	SOD             int                         `json:"sod"`
	Aborted         bool                        `json:"aborted,omitempty"`
	AbortReason     string                      `json:"abort_reason,omitempty"`
	Support         int                         `json:"support,omitempty"`
	Conflicts       int                         `json:"conflicts,omitempty"`
	UseSegmentation bool                        `json:"use_segmentation,omitempty"`
	Workers         int                         `json:"workers,omitempty"`
	BlockTag        string                      `json:"block_tag,omitempty"`
	BlockPath       string                      `json:"block_path,omitempty"`
	BlockAttrSig    string                      `json:"block_attr_sig,omitempty"`
	Report          *Report                     `json:"report,omitempty"`
	Types           []sod.PersistedType         `json:"types,omitempty"`
	Symbols         []string                    `json:"symbols,omitempty"`
	Template        *template.PersistedTemplate `json:"template,omitempty"`
	Matches         []*template.PersistedMatch  `json:"matches,omitempty"`
}

// Encode writes the wrapper's full learned state to dst. Aborted wrappers
// encode too (their Report explains the abort); nil wrappers do not.
func (w *Wrapper) Encode(dst io.Writer) error {
	if w == nil {
		return errors.New("wrapper: cannot encode a nil wrapper")
	}
	p := persisted{
		SOD:             -1,
		Aborted:         w.Aborted,
		AbortReason:     w.AbortReason,
		Support:         w.Support,
		Conflicts:       w.Conflicts,
		UseSegmentation: w.useSegmentation,
		Workers:         w.workers,
		BlockTag:        w.BlockKey.Tag,
		BlockPath:       w.BlockKey.Path,
		BlockAttrSig:    w.BlockKey.AttrSig,
		Report:          w.Report,
	}
	pool := sod.NewTypePool()
	if w.SOD != nil {
		p.SODSig = w.SOD.String()
		p.SOD = pool.Add(w.SOD)
	}
	if w.Template != nil {
		if w.tab == nil {
			// Hand-built wrappers: establish the symbol-table invariant
			// before the descriptors' symbol ids are written out.
			tab := symtab.New()
			template.InternDescs(w.Template, tab)
			w.tab = tab.Freeze()
		}
		p.Symbols = w.tab.Symbols()
		p.Template, p.Matches = template.Persist(w.Template, w.Matches, pool)
	}
	p.Types = pool.Records()
	payload, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("wrapper: encode: %w", err)
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(dst, "%s v%d sha256=%s\n", FormatMagic, FormatVersion, hex.EncodeToString(sum[:])); err != nil {
		return err
	}
	_, err = dst.Write(payload)
	return err
}

// Decode reads a wrapper persisted by Encode. When rebind is non-nil, it
// becomes the decoded wrapper's SOD — after verifying that its canonical
// signature matches the persisted one (ErrSODMismatch otherwise); this is
// how loaded wrappers regain the live SOD's rules. With a nil rebind the
// persisted SOD (sans rules) is used as-is.
func Decode(src io.Reader, rebind *sod.Type) (*Wrapper, error) {
	br := bufio.NewReader(src)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrFormat, err)
	}
	fields := strings.Fields(strings.TrimSuffix(header, "\n"))
	if len(fields) != 3 || fields[0] != FormatMagic {
		return nil, fmt.Errorf("%w: not a %s stream", ErrFormat, FormatMagic)
	}
	version, err := strconv.Atoi(strings.TrimPrefix(fields[1], "v"))
	if err != nil || !strings.HasPrefix(fields[1], "v") {
		return nil, fmt.Errorf("%w: malformed version %q", ErrFormat, fields[1])
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (supported: %d)", ErrFormat, version, FormatVersion)
	}
	wantSum, ok := strings.CutPrefix(fields[2], "sha256=")
	if !ok {
		return nil, fmt.Errorf("%w: malformed checksum field %q", ErrFormat, fields[2])
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("wrapper: decode: %w", err)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		return nil, fmt.Errorf("%w: checksum mismatch (stream corrupted or truncated)", ErrFormat)
	}
	var p persisted
	dec := json.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrFormat, err)
	}
	types, err := sod.DecodeTypePool(p.Types)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	w := &Wrapper{
		Aborted:         p.Aborted,
		AbortReason:     p.AbortReason,
		Support:         p.Support,
		Conflicts:       p.Conflicts,
		useSegmentation: p.UseSegmentation,
		workers:         p.Workers,
		BlockKey:        segment.Key{Tag: p.BlockTag, Path: p.BlockPath, AttrSig: p.BlockAttrSig},
		Report:          p.Report,
	}
	if p.SOD >= 0 {
		if p.SOD >= len(types) {
			return nil, fmt.Errorf("%w: SOD reference %d out of range", ErrFormat, p.SOD)
		}
		w.SOD = types[p.SOD]
	}
	if rebind != nil {
		if p.SODSig != "" && rebind.String() != p.SODSig {
			return nil, fmt.Errorf("%w: persisted for %q, loading against %q", ErrSODMismatch, p.SODSig, rebind.String())
		}
		w.SOD = rebind
	}
	if p.Template != nil {
		tab, err := symtab.Restore(p.Symbols)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		tmpl, matches, err := template.Restore(p.Template, p.Matches, types, tab)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		w.Template = tmpl
		w.Matches = matches
		w.tab = tab.Freeze()
	}
	return w, nil
}

// SetWorkers overrides the decoded wrapper's worker-pool size (the saving
// machine's CPU count is meaningless on the serving machine).
func (w *Wrapper) SetWorkers(n int) { w.workers = n }

// SetObserver attaches an observer to the wrapper for its extraction
// calls. Decoded wrappers come back without one — observers are live
// process state, not learned state.
func (w *Wrapper) SetObserver(ob *obs.Observer) { w.obs = ob }
