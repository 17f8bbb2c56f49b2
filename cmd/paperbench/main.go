// Command paperbench regenerates every table and figure of the paper's
// evaluation section and checks the qualitative claims ("shapes") against
// the data.
//
// Usage:
//
//	paperbench [-experiment fig4|fig5|ablations|comparisons|adaptive|multicore|all] [-quick] [-jobs N]
//
// -quick trims the Figure 5 quantum sweep for a fast run; the default runs
// the paper's full 1..1M axis.
//
// The experiments are independent simulations, so they fan out across a
// bounded worker pool: the top-level sections run concurrently into
// per-section buffers, and the inner sweeps (the Figure 4 partition grid,
// the Figure 5 quantum grid, the ablations) are parallelized inside
// internal/experiments. Output is assembled in a fixed order, so any -jobs
// value emits byte-identical text; -jobs 1 reproduces a fully serial run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"colcache/internal/experiments"
	"colcache/internal/runner"
	"colcache/internal/workloads/gzipsim"
	"colcache/internal/workloads/mpeg"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: fig4, fig5, ablations, comparisons, adaptive, multicore, all")
	quick := flag.Bool("quick", false, "trim sweeps for a fast run")
	jsonPath := flag.String("json", "", "write all results as JSON to this file instead of tables")
	jobs := flag.Int("jobs", 0, "parallel workers (0 = one per CPU, 1 = serial)")
	corebench := flag.String("corebench", "", "run the core benchmark (stepper at 1/2/4/8 cores, streaming replay, best-of--corereps) and write JSON to this file")
	corebaseline := flag.String("corebaseline", "", "compare the -corebench run against this committed baseline JSON; exit nonzero on regression")
	coretolerance := flag.Float64("coretolerance", 0.25, "fractional throughput regression tolerated against -corebaseline")
	corereps := flag.Int("corereps", 3, "repetitions per -corebench row; the best run is kept")
	flag.Parse()

	experiments.SetWorkers(*jobs)

	if *corebench != "" {
		ok, err := runCoreBench(*corebench, *corebaseline, *coretolerance, *corereps, *quick)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *jsonPath != "" {
		if err := runJSON(*jsonPath, *quick, *jobs); err != nil {
			fail(err)
		}
		return
	}

	var sections []func(w io.Writer) (bool, error)
	switch *experiment {
	case "fig4":
		sections = append(sections, runFig4)
	case "fig5":
		sections = append(sections, fig5Section(*quick))
	case "ablations":
		sections = append(sections, ablationsSection(*jobs))
	case "comparisons":
		sections = append(sections, comparisonsSection(*jobs))
	case "adaptive":
		sections = append(sections, adaptiveSection(*quick))
	case "multicore":
		sections = append(sections, multicoreSection)
	case "all":
		sections = append(sections,
			runFig4,
			fig5Section(*quick),
			ablationsSection(*jobs),
			comparisonsSection(*jobs),
			adaptiveSection(*quick),
			multicoreSection,
		)
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	ok, err := runSections(os.Stdout, sections, *jobs)
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runSections fans the sections out across a bounded pool, each writing to
// its own buffer, then emits the buffers in section order so the output is
// identical at any pool width.
func runSections(w io.Writer, sections []func(io.Writer) (bool, error), jobs int) (bool, error) {
	type result struct {
		text []byte
		ok   bool
	}
	results, err := runner.Map(context.Background(), sections,
		func(_ context.Context, section func(io.Writer) (bool, error), _ int) (result, error) {
			var buf bytes.Buffer
			ok, err := section(&buf)
			return result{buf.Bytes(), ok}, err
		},
		runner.Options{Workers: jobs})
	if err != nil {
		return false, err
	}
	allOK := true
	for _, r := range results {
		if _, err := w.Write(r.text); err != nil {
			return false, err
		}
		allOK = allOK && r.ok
	}
	return allOK, nil
}

func report(w io.Writer, problems []string) bool {
	if len(problems) == 0 {
		fmt.Fprintln(w, "shape check: all of the paper's qualitative claims hold")
		return true
	}
	for _, p := range problems {
		fmt.Fprintf(w, "shape check FAILED: %s\n", p)
	}
	return false
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
	os.Exit(1)
}

func runFig4(w io.Writer) (bool, error) {
	fmt.Fprintln(w, "=== Figure 4: scratchpad vs cache partitioning (MPEG routines) ===")
	data, err := experiments.RunFig4(experiments.DefaultFig4Config)
	if err != nil {
		return false, err
	}
	for _, t := range data.Tables() {
		t.Write(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "remap overhead included in the dynamic result: %d cycles\n", data.RemapOverheadCycles)
	return report(w, data.Verify()), nil
}

// quickFig5Config trims the quantum sweep for -quick runs.
func quickFig5Config(cfg experiments.Fig5Config) experiments.Fig5Config {
	cfg.Quanta = []int64{1, 64, 4096, 262144, 1048576}
	cfg.TargetInstructions = 1 << 19
	return cfg
}

func fig5Section(quick bool) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Figure 5: multitasking CPI vs context-switch quantum (3× gzip) ===")
		cfg := experiments.DefaultFig5Config
		if quick {
			cfg = quickFig5Config(cfg)
		}
		data, err := experiments.RunFig5(cfg)
		if err != nil {
			return false, err
		}
		data.Table().Write(w)
		fmt.Fprintln(w)
		data.EnergyTable().Write(w)
		fmt.Fprintln(w)
		return report(w, data.Verify()), nil
	}
}

// multicoreSection runs the cross-core interference study. The default
// config is already a sub-second run, so -quick does not trim it: shorter
// co-runs lose the re-touch passes that carry the interference signal.
func multicoreSection(w io.Writer) (bool, error) {
	fmt.Fprintln(w, "=== Multicore: cross-core interference over a shared column L2 ===")
	data, err := experiments.RunMulticore(experiments.DefaultMulticoreConfig)
	if err != nil {
		return false, err
	}
	for _, t := range data.Tables() {
		t.Write(w)
		fmt.Fprintln(w)
	}
	return report(w, data.Verify()), nil
}

// runCoreBench measures the core benchmark (best-of-reps per row), writes
// the snapshot to path, and — when baselinePath is set — gates against the
// committed baseline: any row more than tolerance below it fails the run.
func runCoreBench(path, baselinePath string, tolerance float64, reps int, quick bool) (bool, error) {
	per := 100000
	if quick {
		per = 25000
	}
	cb, err := experiments.RunCoreBench([]int{1, 2, 4, 8}, per, reps)
	if err != nil {
		return false, err
	}
	experiments.CoreBenchTable(cb).Write(os.Stdout)
	data, err := json.MarshalIndent(cb, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("paperbench: wrote %s (%d bytes)\n", path, len(data)+1)
	if baselinePath == "" {
		return true, nil
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, fmt.Errorf("reading baseline: %w", err)
	}
	var baseline experiments.CoreBench
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return false, fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	problems := experiments.CompareCoreBench(cb, &baseline, tolerance)
	for _, p := range problems {
		fmt.Printf("core bench REGRESSION: %s\n", p)
	}
	if len(problems) == 0 {
		fmt.Printf("core bench: within %.0f%% of %s on every row\n", tolerance*100, baselinePath)
	}
	return len(problems) == 0, nil
}

// quickAdaptiveConfig trims the adaptive scenarios for -quick runs.
func quickAdaptiveConfig(cfg experiments.AdaptiveConfig) experiments.AdaptiveConfig {
	cfg.Phases = 4
	cfg.Passes = 24
	cfg.CoRunTarget = 1 << 16
	return cfg
}

func adaptiveSection(quick bool) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Adaptive control: online column allocation vs static layouts ===")
		cfg := experiments.DefaultAdaptiveConfig
		if quick {
			cfg = quickAdaptiveConfig(cfg)
		}
		data, err := experiments.RunAdaptive(cfg)
		if err != nil {
			return false, err
		}
		for _, t := range data.Tables() {
			t.Write(w)
			fmt.Fprintln(w)
		}
		return report(w, data.Verify()), nil
	}
}

func ablationsSection(jobs int) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Ablations ===")
		units := []func(io.Writer) (bool, error){
			func(w io.Writer) (bool, error) {
				pol, err := experiments.RunPolicyAblation()
				if err != nil {
					return false, err
				}
				experiments.PolicyAblationTable(pol).Write(w)
				ok := true
				for _, r := range pol {
					if r.MappedCPI >= r.SharedCPI {
						fmt.Fprintf(w, "shape check FAILED: policy %s shows no isolation benefit\n", r.Policy)
						ok = false
					}
				}
				fmt.Fprintln(w)
				return ok, nil
			},
			func(w io.Writer) (bool, error) {
				pen, err := experiments.RunMissPenaltyAblation([]int{5, 10, 20, 40, 80})
				if err != nil {
					return false, err
				}
				experiments.MissPenaltyAblationTable(pen).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				tlb, err := experiments.RunTLBAblation([]int{8, 16, 32, 64, 128}, 30)
				if err != nil {
					return false, err
				}
				experiments.TLBAblationTable(tlb).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				mask, err := experiments.RunMaskGranularityAblation()
				if err != nil {
					return false, err
				}
				experiments.MaskGranularityAblationTable(mask).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				en, err := experiments.RunEnergyAblation()
				if err != nil {
					return false, err
				}
				experiments.EnergyAblationTable(en).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				wp, err := experiments.RunWritePolicyAblation()
				if err != nil {
					return false, err
				}
				experiments.WritePolicyAblationTable(wp).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				jcfg := experiments.DefaultJitterConfig
				jit, err := experiments.RunJitter(jcfg)
				if err != nil {
					return false, err
				}
				experiments.JitterTable(jit, jcfg).Write(w)
				fmt.Fprintln(w)
				if jit[1].MaxCPI-jit[1].MinCPI > 0.02 {
					fmt.Fprintln(w, "shape check FAILED: mapped CPI not immune to quantum jitter")
					return false, nil
				}
				return true, nil
			},
		}
		ok, err := runSections(w, units, jobs)
		if err != nil {
			return false, err
		}
		if ok {
			fmt.Fprintln(w, "shape check: ablation expectations hold")
		}
		return ok, nil
	}
}

func comparisonsSection(jobs int) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Related-work comparisons (paper §5.1) ===")

		// The units run concurrently, each into its own buffer; the
		// cross-unit shape checks read their captured results after the
		// pool has drained.
		var (
			pc []experiments.PageColorComparison
			gr []experiments.GranularityComparison
		)
		units := []func(io.Writer) (bool, error){
			func(w io.Writer) (bool, error) {
				var err error
				if pc, err = experiments.RunPageColorComparison(); err != nil {
					return false, err
				}
				experiments.PageColorComparisonTable(pc).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				var err error
				if gr, err = experiments.RunGranularityComparison(); err != nil {
					return false, err
				}
				experiments.GranularityComparisonTable(gr).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				pipeRows, pipeDecisions, err := experiments.RunPipelineDynamic(mpeg.DefaultConfig)
				if err != nil {
					return false, err
				}
				experiments.PipelineTable(pipeRows, pipeDecisions).Write(w)
				experiments.PipelineDecisionsTable(pipeDecisions).Write(w)
				fmt.Fprintln(w)
				if pipeRows[2].Cycles >= pipeRows[1].Cycles {
					fmt.Fprintln(w, "shape check FAILED: dynamic layout not better than static on the pipeline")
					return false, nil
				}
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				job := gzipsim.Job(gzipsim.Config{WindowBytes: 4096}, 0)
				l2, err := experiments.RunL2Comparison(job.Trace)
				if err != nil {
					return false, err
				}
				experiments.L2ComparisonTable(l2).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
		}
		ok, err := runSections(w, units, jobs)
		if err != nil {
			return false, err
		}
		if pc[0].RemapCost < 100*pc[1].RemapCost {
			fmt.Fprintln(w, "shape check FAILED: page-coloring remap not ≫ column remap")
			ok = false
		}
		if gr[2].TableMisses*5 >= gr[1].TableMisses {
			fmt.Fprintln(w, "shape check FAILED: region tints did not beat process masks")
			ok = false
		}
		if ok {
			fmt.Fprintln(w, "shape check: comparison expectations hold")
		}
		return ok, nil
	}
}

// jsonResults collects every experiment's structured data for -json output.
type jsonResults struct {
	Fig4              *experiments.Fig4Data                 `json:"fig4,omitempty"`
	Fig5              *experiments.Fig5Data                 `json:"fig5,omitempty"`
	Policy            []experiments.PolicyAblation          `json:"policyAblation,omitempty"`
	MissPenalty       []experiments.MissPenaltyAblation     `json:"missPenaltyAblation,omitempty"`
	TLB               []experiments.TLBAblation             `json:"tlbAblation,omitempty"`
	Mask              []experiments.MaskGranularityAblation `json:"maskGranularityAblation,omitempty"`
	WritePolicy       []experiments.WritePolicyAblation     `json:"writePolicyAblation,omitempty"`
	Jitter            []experiments.JitterResult            `json:"jitterAblation,omitempty"`
	PageColor         []experiments.PageColorComparison     `json:"pageColorComparison,omitempty"`
	Granularity       []experiments.GranularityComparison   `json:"granularityComparison,omitempty"`
	L2                []experiments.L2Comparison            `json:"l2Comparison,omitempty"`
	Pipeline          []experiments.PipelineResult          `json:"pipelineDynamic,omitempty"`
	Adaptive          *experiments.AdaptiveData             `json:"adaptive,omitempty"`
	Multicore         *experiments.MulticoreData            `json:"multicore,omitempty"`
	ShapeChecksPassed bool                                  `json:"shapeChecksPassed"`
}

// runJSON regenerates everything and writes one JSON document to path. The
// tasks fan out across the worker pool, each filling its own field of res,
// and the document is marshaled after the pool drains — so the JSON too is
// identical at any -jobs value.
func runJSON(path string, quick bool, jobs int) error {
	res := jsonResults{}
	fig4OK, fig5OK, adaptiveOK, multicoreOK := false, false, false, false
	tasks := []func() error{
		func() (err error) {
			if res.Fig4, err = experiments.RunFig4(experiments.DefaultFig4Config); err == nil {
				fig4OK = len(res.Fig4.Verify()) == 0
			}
			return err
		},
		func() (err error) {
			cfg5 := experiments.DefaultFig5Config
			if quick {
				cfg5 = quickFig5Config(cfg5)
			}
			if res.Fig5, err = experiments.RunFig5(cfg5); err == nil {
				fig5OK = len(res.Fig5.Verify()) == 0
			}
			return err
		},
		func() (err error) { res.Policy, err = experiments.RunPolicyAblation(); return },
		func() (err error) {
			res.MissPenalty, err = experiments.RunMissPenaltyAblation([]int{5, 10, 20, 40, 80})
			return
		},
		func() (err error) { res.TLB, err = experiments.RunTLBAblation([]int{8, 16, 32, 64, 128}, 30); return },
		func() (err error) { res.Mask, err = experiments.RunMaskGranularityAblation(); return },
		func() (err error) { res.WritePolicy, err = experiments.RunWritePolicyAblation(); return },
		func() (err error) { res.Jitter, err = experiments.RunJitter(experiments.DefaultJitterConfig); return },
		func() (err error) { res.PageColor, err = experiments.RunPageColorComparison(); return },
		func() (err error) { res.Granularity, err = experiments.RunGranularityComparison(); return },
		func() (err error) {
			job := gzipsim.Job(gzipsim.Config{WindowBytes: 4096}, 0)
			res.L2, err = experiments.RunL2Comparison(job.Trace)
			return err
		},
		func() (err error) { res.Pipeline, _, err = experiments.RunPipelineDynamic(mpeg.DefaultConfig); return },
		func() (err error) {
			cfgA := experiments.DefaultAdaptiveConfig
			if quick {
				cfgA = quickAdaptiveConfig(cfgA)
			}
			if res.Adaptive, err = experiments.RunAdaptive(cfgA); err == nil {
				adaptiveOK = len(res.Adaptive.Verify()) == 0
			}
			return err
		},
		func() (err error) {
			if res.Multicore, err = experiments.RunMulticore(experiments.DefaultMulticoreConfig); err == nil {
				multicoreOK = len(res.Multicore.Verify()) == 0
			}
			return err
		},
	}
	if _, err := runner.Map(context.Background(), tasks,
		func(_ context.Context, task func() error, _ int) (struct{}, error) {
			return struct{}{}, task()
		},
		runner.Options{Workers: jobs}); err != nil {
		return err
	}
	res.ShapeChecksPassed = fig4OK && fig5OK && adaptiveOK && multicoreOK

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("paperbench: wrote %s (%d bytes)\n", path, len(data))
	if !res.ShapeChecksPassed {
		return fmt.Errorf("shape checks failed (see %s)", path)
	}
	return nil
}
