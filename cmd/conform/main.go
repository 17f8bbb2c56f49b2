// Command conform runs the differential conformance harness from the
// command line: seeded random property cases, the golden-trace matrix, or a
// single committed repro file. A failing random case is minimized before
// being written out, so what lands in the bug report is a handful of steps,
// not a thousand.
//
// Exit status: 0 all cases agree, 1 a divergence was found, 2 bad usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"colcache/internal/conform"
	"colcache/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 256, "number of seeded random cases")
	mc := fs.Int("mc", 0, "number of seeded multicore Step-vs-RunContext equivalence cases")
	seed := fs.Int64("seed", 1, "first random-case seed (cases use seed..seed+n-1)")
	jobs := fs.Int("jobs", runner.DefaultWorkers(), "cases checked concurrently")
	golden := fs.String("golden", "internal/conform/testdata/golden", "golden trace directory (empty to skip)")
	replay := fs.String("replay", "", "replay one committed repro file instead of sweeping")
	repro := fs.String("repro", "conform-repro.json", "where to write a minimized failing case")
	contentEvery := fs.Int("content-every", conform.DefaultContentCheckEvery, "full-state comparison stride")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "conform: unexpected arguments %v\n", fs.Args())
		return 2
	}
	opts := conform.Options{ContentCheckEvery: *contentEvery}

	if *replay != "" {
		c, err := conform.ReadCase(*replay)
		if err != nil {
			fmt.Fprintf(stderr, "conform: %v\n", err)
			return 2
		}
		if d := conform.Run(c, opts); d != nil {
			fmt.Fprintf(stderr, "%s\n", d.Error())
			return 1
		}
		fmt.Fprintf(stdout, "conform: %s: ok (%d steps)\n", c.Name, len(c.Script))
		return 0
	}

	var cases []conform.Case
	if *golden != "" {
		gs, err := conform.GoldenCases(*golden)
		if err != nil {
			fmt.Fprintf(stderr, "conform: %v\n", err)
			return 2
		}
		cases = append(cases, gs...)
	}
	for i := 0; i < *n; i++ {
		cases = append(cases, conform.NewCase(*seed+int64(i)))
	}

	divs, err := runner.Map(context.Background(), cases,
		func(_ context.Context, c conform.Case, _ int) (*conform.Divergence, error) {
			return conform.Run(c, opts), nil
		},
		runner.Options{Workers: *jobs})
	if err != nil {
		fmt.Fprintf(stderr, "conform: %v\n", err)
		return 1
	}

	failed := 0
	var first *conform.Divergence
	var firstCase conform.Case
	for i, d := range divs {
		if d == nil {
			continue
		}
		failed++
		fmt.Fprintf(stderr, "FAIL %s\n", d.Error())
		if first == nil {
			first, firstCase = d, cases[i]
		}
	}
	if first != nil {
		min, d := conform.Minimize(firstCase, opts)
		if d == nil { // flaky environment, not a deterministic divergence
			min, d = firstCase, first
		}
		if err := conform.WriteCase(*repro, min); err != nil {
			fmt.Fprintf(stderr, "conform: writing repro: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "conform: minimized repro (%d steps) written to %s\n", len(min.Script), *repro)
			fmt.Fprintf(stderr, "conform: replay with: conform -replay %s\n", *repro)
		}
		fmt.Fprintf(stderr, "conform: %d/%d cases diverged\n", failed, len(cases))
		return 1
	}

	// Multicore run-loop sweep: RunContext at seeded strides against the
	// checked Step loop, every counter and cache line compared.
	if *mc > 0 {
		mcs := make([]conform.MCCase, *mc)
		for i := range mcs {
			mcs[i] = conform.NewMCCase(*seed + int64(i))
		}
		mcDivs, err := runner.Map(context.Background(), mcs,
			func(_ context.Context, c conform.MCCase, _ int) (*conform.Divergence, error) {
				return conform.RunMCCase(c), nil
			},
			runner.Options{Workers: *jobs})
		if err != nil {
			fmt.Fprintf(stderr, "conform: %v\n", err)
			return 1
		}
		mcFailed := 0
		for _, d := range mcDivs {
			if d != nil {
				mcFailed++
				fmt.Fprintf(stderr, "FAIL %s\n", d.Error())
			}
		}
		if mcFailed > 0 {
			fmt.Fprintf(stderr, "conform: %d/%d multicore equivalence cases diverged\n", mcFailed, len(mcs))
			return 1
		}
	}

	fmt.Fprintf(stdout, "conform: %d cases agree (%d golden, %d random from seed %d)\n",
		len(cases), len(cases)-*n, *n, *seed)
	if *mc > 0 {
		fmt.Fprintf(stdout, "conform: %d multicore Step-vs-RunContext cases agree\n", *mc)
	}
	return 0
}
