// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) over the synthetic benchmark: Table I (per-source
// extraction results), Table II (SOD-guided vs random sample selection),
// Table III and Figure 6 (ObjectRunner vs ExAlg vs RoadRunner), the
// wrapping-time measurement, and the ablations called out in DESIGN.md
// (support variation, dictionary coverage, block-abort threshold).
package experiments

import (
	"context"
	"fmt"
	"time"

	"objectrunner/internal/corpus"
	"objectrunner/internal/eval"
	"objectrunner/internal/exalg"
	"objectrunner/internal/obs"
	"objectrunner/internal/recognize"
	"objectrunner/internal/roadrunner"
	"objectrunner/internal/sitegen"
	"objectrunner/internal/wrapper"
)

// Algo names the competing systems of §IV.B.
type Algo string

const (
	// OR is ObjectRunner, the paper's system.
	OR Algo = "ObjectRunner"
	// EA is the ExAlg baseline.
	EA Algo = "ExAlg"
	// RR is the RoadRunner baseline.
	RR Algo = "RoadRunner"
)

// Env caches the generated benchmark and the per-domain recognizers.
type Env struct {
	B    *sitegen.Benchmark
	regs map[string]map[string]recognize.Recognizer
	// Workers, when non-zero, overrides Config.Workers on every
	// ObjectRunner inference the experiments run (the -workers flag).
	Workers int
	// Obs, when set, observes every wrapper inference the experiments run.
	Obs *obs.Observer
}

// NewEnv generates the benchmark and resolves recognizers for every
// domain from the knowledge base and the corpus (both gazetteer sources
// of §III.A).
func NewEnv(cfg sitegen.Config) (*Env, error) {
	b, err := sitegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	e := &Env{B: b, regs: make(map[string]map[string]recognize.Recognizer)}
	for _, dd := range b.Domains {
		reg := recognize.NewRegistry(b.KB, corpus.Source{Corpus: b.Corpus, Threshold: 0.05})
		recs, err := reg.ResolveAll(dd.SOD)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", dd.Spec.Name, err)
		}
		e.regs[dd.Spec.Name] = recs
	}
	return e, nil
}

// SourceRun is one (algorithm, source) evaluation outcome.
type SourceRun struct {
	Domain, Source string
	Algo           Algo
	Detail         bool
	Optional       bool
	Aborted        bool
	AbortReason    string
	InferSeconds   float64
	Result         eval.SourceResult
}

// RunOR runs ObjectRunner on one source with the given pipeline config
// and scores it against the golden standard.
func (e *Env) RunOR(dd *sitegen.DomainData, src *sitegen.Source, cfg wrapper.Config) SourceRun {
	recs := e.regs[dd.Spec.Name]
	if e.Obs != nil {
		cfg.Obs = e.Obs
	}
	if e.Workers != 0 {
		cfg.Workers = e.Workers
	}
	start := time.Now()
	w := wrapper.Infer(src.Pages, dd.SOD, recs, e.B.KB, cfg)
	elapsed := time.Since(start).Seconds()
	run := SourceRun{
		Domain: dd.Spec.Name, Source: src.Spec.Name, Algo: OR,
		Detail: src.Spec.Detail, InferSeconds: elapsed,
		Aborted: w.Aborted, AbortReason: w.AbortReason,
	}
	var extracted [][]eval.Record
	if !w.Aborted {
		// A background context never cancels, so the error is always nil.
		per, _ := w.ExtractStreamBatchContext(context.Background(), src.HTML)
		for _, objs := range per {
			extracted = append(extracted, eval.RecordsFromInstances(objs))
		}
	}
	run.Result = eval.EvaluateSource(src.Spec.Name, dd.Spec.Attrs, src.Golden, extracted, eval.IdentityMapping(dd.Spec.Attrs))
	run.Optional = run.Result.OptionalPresent
	return run
}

// RunEA runs the ExAlg baseline on one source. Its anonymous fields are
// labelled post-hoc against the golden standard (the manual labeling the
// paper's methodology implies for the baselines).
func (e *Env) RunEA(dd *sitegen.DomainData, src *sitegen.Source) SourceRun {
	start := time.Now()
	w := exalg.Infer(src.Pages, exalg.DefaultConfig())
	elapsed := time.Since(start).Seconds()
	run := SourceRun{
		Domain: dd.Spec.Name, Source: src.Spec.Name, Algo: EA,
		Detail: src.Spec.Detail, InferSeconds: elapsed, Aborted: w.Aborted,
	}
	var extracted [][]eval.Record
	if !w.Aborted {
		for _, recs := range w.ExtractPages(src.Pages) {
			page := make([]eval.Record, len(recs))
			for i, r := range recs {
				page[i] = eval.Record(r)
			}
			extracted = append(extracted, page)
		}
	}
	mapping := eval.BuildMapping(dd.Spec.Attrs, src.Golden, extracted)
	run.Result = eval.EvaluateSource(src.Spec.Name, dd.Spec.Attrs, src.Golden, extracted, mapping)
	run.Optional = run.Result.OptionalPresent
	return run
}

// RunRR runs the RoadRunner baseline on one source, labelled post-hoc
// like ExAlg.
func (e *Env) RunRR(dd *sitegen.DomainData, src *sitegen.Source) SourceRun {
	start := time.Now()
	w := roadrunner.Infer(src.Pages, roadrunner.DefaultConfig())
	elapsed := time.Since(start).Seconds()
	run := SourceRun{
		Domain: dd.Spec.Name, Source: src.Spec.Name, Algo: RR,
		Detail: src.Spec.Detail, InferSeconds: elapsed, Aborted: w.Aborted,
	}
	var extracted [][]eval.Record
	if !w.Aborted {
		for _, recs := range w.ExtractPages(src.Pages) {
			page := make([]eval.Record, len(recs))
			for i, r := range recs {
				page[i] = eval.Record(r)
			}
			extracted = append(extracted, page)
		}
	}
	mapping := eval.BuildMapping(dd.Spec.Attrs, src.Golden, extracted)
	run.Result = eval.EvaluateSource(src.Spec.Name, dd.Spec.Attrs, src.Golden, extracted, mapping)
	run.Optional = run.Result.OptionalPresent
	return run
}

// Run dispatches on the algorithm.
func (e *Env) Run(algo Algo, dd *sitegen.DomainData, src *sitegen.Source, cfg wrapper.Config) SourceRun {
	switch algo {
	case EA:
		return e.RunEA(dd, src)
	case RR:
		return e.RunRR(dd, src)
	default:
		return e.RunOR(dd, src, cfg)
	}
}

// Table1 reproduces the paper's Table I: ObjectRunner's per-source
// attribute and object results across all domains.
func (e *Env) Table1() []SourceRun {
	var out []SourceRun
	for _, dd := range e.B.Domains {
		for _, src := range dd.Sources {
			out = append(out, e.RunOR(dd, src, wrapper.DefaultConfig()))
		}
	}
	return out
}

// Table2Row is one domain of Table II.
type Table2Row struct {
	Domain         string
	SelPc, SelPp   float64
	RandPc, RandPp float64
}

// Table2 reproduces the paper's Table II: precision with SOD-guided
// sample selection vs uniform random selection. The sample is kept well
// below the page pool (as in the paper: k≈20 of ~50 crawled pages, some
// of which are off-template) so that how pages are selected matters.
func (e *Env) Table2() []Table2Row {
	// The random baseline is averaged over a few seeds so a lucky or
	// unlucky draw does not decide a domain.
	randomSeeds := []uint64{1789, 31, 97}
	var out []Table2Row
	for _, dd := range e.B.Domains {
		sel := eval.DomainResult{Domain: dd.Spec.Name}
		rnds := make([]eval.DomainResult, len(randomSeeds))
		for _, src := range dd.Sources {
			k := 2 * len(src.Pages) / 5
			if k < 4 {
				k = 4
			}
			cfg := wrapper.DefaultConfig()
			cfg.Sample.SampleSize = k
			sel.Sources = append(sel.Sources, e.RunOR(dd, src, cfg).Result)
			for si, seed := range randomSeeds {
				cfg.RandomSample = true
				cfg.RandomSeed = seed
				rnds[si].Sources = append(rnds[si].Sources, e.RunOR(dd, src, cfg).Result)
			}
		}
		var rpc, rpp float64
		for _, r := range rnds {
			rpc += r.Pc()
			rpp += r.Pp()
		}
		rpc /= float64(len(rnds))
		rpp /= float64(len(rnds))
		out = append(out, Table2Row{
			Domain: dd.Spec.Name,
			SelPc:  sel.Pc(), SelPp: sel.Pp(),
			RandPc: rpc, RandPp: rpp,
		})
	}
	return out
}

// Table3Row is one domain of Table III.
type Table3Row struct {
	Domain string
	// Per-algorithm domain results, keyed OR/EA/RR.
	Results map[Algo]eval.DomainResult
}

// Table3 reproduces the paper's Table III and feeds Figure 6: per-domain
// Pc/Pp of the three systems.
func (e *Env) Table3() []Table3Row {
	var out []Table3Row
	for _, dd := range e.B.Domains {
		row := Table3Row{Domain: dd.Spec.Name, Results: make(map[Algo]eval.DomainResult)}
		for _, algo := range []Algo{OR, EA, RR} {
			dr := eval.DomainResult{Domain: dd.Spec.Name}
			for _, src := range dd.Sources {
				dr.Sources = append(dr.Sources, e.Run(algo, dd, src, wrapper.DefaultConfig()).Result)
			}
			row.Results[algo] = dr
		}
		out = append(out, row)
	}
	return out
}

// Figure6 summarizes Table III the way the paper's Figure 6 does:
// object-classification rates (a) and incompletely-managed-source rates
// (b) per domain and algorithm.
type Figure6 struct {
	Domain                      string
	Algo                        Algo
	Correct, Partial, Incorrect float64 // Figure 6(a)
	IncompleteSources           float64 // Figure 6(b)
}

// Figure6FromTable3 derives the figure series.
func Figure6FromTable3(rows []Table3Row) []Figure6 {
	var out []Figure6
	for _, row := range rows {
		for _, algo := range []Algo{OR, EA, RR} {
			dr := row.Results[algo]
			c, p, i := dr.ClassificationRates()
			out = append(out, Figure6{
				Domain: row.Domain, Algo: algo,
				Correct: c, Partial: p, Incorrect: i,
				IncompleteSources: dr.IncompleteRate(),
			})
		}
	}
	return out
}

// SupportAblation re-runs ObjectRunner on one domain with the support
// parameter pinned to each value in [3,5], reporting conflicts and
// precision — the paper's "automatic variation of parameters" study on
// publication sources.
type SupportPoint struct {
	Support int
	Pc, Pp  float64
}

// SupportAblation sweeps the support parameter on the named domain.
func (e *Env) SupportAblation(domain string) []SupportPoint {
	var out []SupportPoint
	for _, dd := range e.B.Domains {
		if dd.Spec.Name != domain {
			continue
		}
		for support := 3; support <= 5; support++ {
			cfg := wrapper.DefaultConfig()
			cfg.SupportMin, cfg.SupportMax = support, support
			dr := eval.DomainResult{Domain: domain}
			for _, src := range dd.Sources {
				dr.Sources = append(dr.Sources, e.RunOR(dd, src, cfg).Result)
			}
			out = append(out, SupportPoint{Support: support, Pc: dr.Pc(), Pp: dr.Pp()})
		}
	}
	return out
}

// CoveragePoint is one dictionary-coverage measurement.
type CoveragePoint struct {
	Coverage float64
	Pc, Pp   float64
	Aborted  int
}

// CoverageAblation regenerates the benchmark at several dictionary
// coverage levels (the paper reports 20% in the body and 10% in Appendix
// A) and measures ObjectRunner's precision on the given domain.
func CoverageAblation(base sitegen.Config, domain string, coverages []float64) ([]CoveragePoint, error) {
	var out []CoveragePoint
	for _, cov := range coverages {
		cfg := base
		cfg.KBCoverage = cov
		cfg.Domains = []string{domain}
		env, err := NewEnv(cfg)
		if err != nil {
			return nil, err
		}
		dd := env.B.Domains[0]
		dr := eval.DomainResult{Domain: domain}
		aborted := 0
		for _, src := range dd.Sources {
			run := env.RunOR(dd, src, wrapper.DefaultConfig())
			if run.Aborted {
				aborted++
			}
			dr.Sources = append(dr.Sources, run.Result)
		}
		out = append(out, CoveragePoint{Coverage: cov, Pc: dr.Pc(), Pp: dr.Pp(), Aborted: aborted})
	}
	return out, nil
}

// AlphaPoint is one block-threshold measurement.
type AlphaPoint struct {
	Alpha   float64
	Pc      float64
	Aborted int
}

// AlphaAblation sweeps the block-abort threshold on one domain.
func (e *Env) AlphaAblation(domain string, alphas []float64) []AlphaPoint {
	var out []AlphaPoint
	for _, dd := range e.B.Domains {
		if dd.Spec.Name != domain {
			continue
		}
		for _, alpha := range alphas {
			cfg := wrapper.DefaultConfig()
			cfg.Sample.Alpha = alpha
			dr := eval.DomainResult{Domain: domain}
			aborted := 0
			for _, src := range dd.Sources {
				run := e.RunOR(dd, src, cfg)
				if run.Aborted {
					aborted++
				}
				dr.Sources = append(dr.Sources, run.Result)
			}
			out = append(out, AlphaPoint{Alpha: alpha, Pc: dr.Pc(), Aborted: aborted})
		}
	}
	return out
}

// Timing reports wrapper-inference wall time per source (the paper's
// §IV: "the wrapping time of our algorithm ranged from 4 to 9 seconds").
type Timing struct {
	Domain, Source string
	Seconds        float64
}

// WrappingTimes measures ObjectRunner inference time on every source.
func (e *Env) WrappingTimes() []Timing {
	var out []Timing
	for _, dd := range e.B.Domains {
		for _, src := range dd.Sources {
			run := e.RunOR(dd, src, wrapper.DefaultConfig())
			out = append(out, Timing{Domain: dd.Spec.Name, Source: src.Spec.Name, Seconds: run.InferSeconds})
		}
	}
	return out
}
