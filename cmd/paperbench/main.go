// Command paperbench regenerates every table and figure of the paper's
// evaluation section and checks the qualitative claims ("shapes") against
// the data.
//
// Usage:
//
//	paperbench [-experiment fig4|fig5|ablations|comparisons|adaptive|multicore|all] [-quick] [-jobs N] [-json FILE]
//
// -quick trims the Figure 5 quantum sweep for a fast run; the default runs
// the paper's full 1..1M axis. -json also writes the same run's results as
// one JSON document; the tables still go to stdout.
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
	jsonPath := flag.String("json", "", "also write the results of the sections run, with their shape-check verdict, as JSON to this file")
	jobs := flag.Int("jobs", 0, "parallel workers (0 = one per CPU, 1 = serial)")
	flag.Parse()

	experiments.SetWorkers(*jobs)

	var res jsonResults
	sections, err := selectSections(*experiment, *quick, *jobs, &res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	ok, err := run(os.Stdout, sections, *jobs, &res, *jsonPath)
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// selectSections returns the sections the -experiment name selects, in
// output order. Each stores its structured results in the fields of res it
// owns while it renders its tables.
func selectSections(experiment string, quick bool, jobs int, res *jsonResults) ([]func(io.Writer) (bool, error), error) {
	all := []struct {
		name    string
		section func(io.Writer) (bool, error)
	}{
		{"fig4", fig4Section(res)},
		{"fig5", fig5Section(quick, res)},
		{"ablations", ablationsSection(jobs, res)},
		{"comparisons", comparisonsSection(jobs, res)},
		{"adaptive", adaptiveSection(quick, res)},
		{"multicore", multicoreSection(res)},
	}
	var sections []func(io.Writer) (bool, error)
	for _, s := range all {
		if experiment == "all" || experiment == s.name {
			sections = append(sections, s.section)
		}
	}
	if len(sections) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", experiment)
	}
	return sections, nil
}

// jsonResults is the -json document: the structured data of every section
// that ran (each section fills only its own fields, so concurrent sections
// never share one) and the run's shape-check verdict.
type jsonResults struct {
	Fig4              *experiments.Fig4Data                 `json:"fig4,omitempty"`
	Fig5              *experiments.Fig5Data                 `json:"fig5,omitempty"`
	Policy            []experiments.PolicyAblation          `json:"policyAblation,omitempty"`
	MissPenalty       []experiments.MissPenaltyAblation     `json:"missPenaltyAblation,omitempty"`
	TLB               []experiments.TLBAblation             `json:"tlbAblation,omitempty"`
	Mask              []experiments.MaskGranularityAblation `json:"maskGranularityAblation,omitempty"`
	Energy            []experiments.EnergyAblation          `json:"energyAblation,omitempty"`
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

// run renders the sections to w and reports whether every shape check
// held. When jsonPath is set it then writes res, which the sections filled
// while rendering, with that same verdict as ShapeChecksPassed — so the
// document and the exit status cannot disagree, and the JSON is identical
// at any -jobs value because the sections' results are.
func run(w io.Writer, sections []func(io.Writer) (bool, error), jobs int, res *jsonResults, jsonPath string) (bool, error) {
	ok, err := runSections(w, sections, jobs)
	if err != nil || jsonPath == "" {
		return ok, err
	}
	res.ShapeChecksPassed = ok
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "paperbench: wrote %s (%d bytes)\n", jsonPath, len(data)+1)
	return ok, nil
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

func fig4Section(res *jsonResults) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Figure 4: scratchpad vs cache partitioning (MPEG routines) ===")
		data, err := experiments.RunFig4(experiments.DefaultFig4Config)
		if err != nil {
			return false, err
		}
		res.Fig4 = data
		for _, t := range data.Tables() {
			t.Write(w)
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "remap overhead included in the dynamic result: %d cycles\n", data.RemapOverheadCycles)
		return report(w, data.Verify()), nil
	}
}

// quickFig5Config trims the quantum sweep for -quick runs.
func quickFig5Config(cfg experiments.Fig5Config) experiments.Fig5Config {
	cfg.Quanta = []int64{1, 64, 4096, 262144, 1048576}
	cfg.TargetInstructions = 1 << 19
	return cfg
}

func fig5Section(quick bool, res *jsonResults) func(io.Writer) (bool, error) {
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
		res.Fig5 = data
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
func multicoreSection(res *jsonResults) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Multicore: cross-core interference over a shared column L2 ===")
		data, err := experiments.RunMulticore(experiments.DefaultMulticoreConfig)
		if err != nil {
			return false, err
		}
		res.Multicore = data
		for _, t := range data.Tables() {
			t.Write(w)
			fmt.Fprintln(w)
		}
		return report(w, data.Verify()), nil
	}
}

// quickAdaptiveConfig trims the adaptive scenarios for -quick runs.
func quickAdaptiveConfig(cfg experiments.AdaptiveConfig) experiments.AdaptiveConfig {
	cfg.Phases = 4
	cfg.Passes = 24
	cfg.CoRunTarget = 1 << 16
	return cfg
}

func adaptiveSection(quick bool, res *jsonResults) func(io.Writer) (bool, error) {
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
		res.Adaptive = data
		for _, t := range data.Tables() {
			t.Write(w)
			fmt.Fprintln(w)
		}
		return report(w, data.Verify()), nil
	}
}

func ablationsSection(jobs int, res *jsonResults) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Ablations ===")
		units := []func(io.Writer) (bool, error){
			func(w io.Writer) (bool, error) {
				pol, err := experiments.RunPolicyAblation()
				if err != nil {
					return false, err
				}
				res.Policy = pol
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
				res.MissPenalty = pen
				experiments.MissPenaltyAblationTable(pen).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				tlb, err := experiments.RunTLBAblation([]int{8, 16, 32, 64, 128}, 30)
				if err != nil {
					return false, err
				}
				res.TLB = tlb
				experiments.TLBAblationTable(tlb).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				mask, err := experiments.RunMaskGranularityAblation()
				if err != nil {
					return false, err
				}
				res.Mask = mask
				experiments.MaskGranularityAblationTable(mask).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				en, err := experiments.RunEnergyAblation()
				if err != nil {
					return false, err
				}
				res.Energy = en
				experiments.EnergyAblationTable(en).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				wp, err := experiments.RunWritePolicyAblation()
				if err != nil {
					return false, err
				}
				res.WritePolicy = wp
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
				res.Jitter = jit
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

func comparisonsSection(jobs int, res *jsonResults) func(io.Writer) (bool, error) {
	return func(w io.Writer) (bool, error) {
		fmt.Fprintln(w, "=== Related-work comparisons (paper §5.1) ===")

		// The units run concurrently, each into its own buffer; the
		// cross-unit shape checks read their results from res after the
		// pool has drained.
		units := []func(io.Writer) (bool, error){
			func(w io.Writer) (bool, error) {
				var err error
				if res.PageColor, err = experiments.RunPageColorComparison(); err != nil {
					return false, err
				}
				experiments.PageColorComparisonTable(res.PageColor).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				var err error
				if res.Granularity, err = experiments.RunGranularityComparison(); err != nil {
					return false, err
				}
				experiments.GranularityComparisonTable(res.Granularity).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
			func(w io.Writer) (bool, error) {
				pipeRows, pipeDecisions, err := experiments.RunPipelineDynamic(mpeg.DefaultConfig)
				if err != nil {
					return false, err
				}
				res.Pipeline = pipeRows
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
				res.L2 = l2
				experiments.L2ComparisonTable(l2).Write(w)
				fmt.Fprintln(w)
				return true, nil
			},
		}
		ok, err := runSections(w, units, jobs)
		if err != nil {
			return false, err
		}
		if pc := res.PageColor; pc[0].RemapCost < 100*pc[1].RemapCost {
			fmt.Fprintln(w, "shape check FAILED: page-coloring remap not ≫ column remap")
			ok = false
		}
		if gr := res.Granularity; gr[2].TableMisses*5 >= gr[1].TableMisses {
			fmt.Fprintln(w, "shape check FAILED: region tints did not beat process masks")
			ok = false
		}
		if ok {
			fmt.Fprintln(w, "shape check: comparison expectations hold")
		}
		return ok, nil
	}
}
