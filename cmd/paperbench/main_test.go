package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"colcache/internal/experiments"
)

// TestRunSectionsOrderAndAggregation checks the property the -jobs flag
// relies on: sections execute concurrently into buffers but the assembled
// output is in section order, with the ok flags ANDed.
func TestRunSectionsOrderAndAggregation(t *testing.T) {
	makeSection := func(i int, ok bool) func(io.Writer) (bool, error) {
		return func(w io.Writer) (bool, error) {
			// Earlier sections sleep longer, so completion order is the
			// reverse of section order when run concurrently.
			time.Sleep(time.Duration(5-i) * time.Millisecond)
			fmt.Fprintf(w, "section %d\n", i)
			return ok, nil
		}
	}
	for _, jobs := range []int{1, 4} {
		var buf bytes.Buffer
		ok, err := runSections(&buf, []func(io.Writer) (bool, error){
			makeSection(0, true), makeSection(1, false), makeSection(2, true), makeSection(3, true),
		}, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if ok {
			t.Errorf("jobs=%d: failing section not reflected in aggregate", jobs)
		}
		want := "section 0\nsection 1\nsection 2\nsection 3\n"
		if buf.String() != want {
			t.Errorf("jobs=%d: output out of order:\n%q", jobs, buf.String())
		}
	}
}

// TestRunSectionsError checks that a section error aborts the run.
func TestRunSectionsError(t *testing.T) {
	boom := errors.New("section failed")
	var buf bytes.Buffer
	_, err := runSections(&buf, []func(io.Writer) (bool, error){
		func(w io.Writer) (bool, error) { fmt.Fprintln(w, "fine"); return true, nil },
		func(io.Writer) (bool, error) { return false, boom },
	}, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
}

// TestRunSectionsPanicContained checks that a panicking section surfaces
// as an error rather than crashing the bench.
func TestRunSectionsPanicContained(t *testing.T) {
	var buf bytes.Buffer
	_, err := runSections(&buf, []func(io.Writer) (bool, error){
		func(io.Writer) (bool, error) { panic("experiment exploded") },
	}, 2)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error = %v, want contained panic", err)
	}
}

// TestQuickFig5Config checks that -quick trims the sweep without touching
// the other parameters.
func TestQuickFig5Config(t *testing.T) {
	full := experiments.DefaultFig5Config
	cfg := quickFig5Config(full)
	if len(cfg.Quanta) != 5 || cfg.TargetInstructions != 1<<19 {
		t.Errorf("quick config = %d quanta, %d instructions", len(cfg.Quanta), cfg.TargetInstructions)
	}
	if cfg.Ways != full.Ways || cfg.LineBytes != full.LineBytes {
		t.Error("quick config changed machine parameters")
	}
}

// readDoc parses a -json document and returns it with its sorted
// top-level keys.
func readDoc(t *testing.T, path string) (map[string]json.RawMessage, []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return doc, keys
}

// TestRunJSONVerdictFollowsEverySection checks that the -json document is
// the text run's: a failing shape check in any section makes both the run
// and the document's shapeChecksPassed fail, and the document carries
// exactly the keys of the sections that ran.
func TestRunJSONVerdictFollowsEverySection(t *testing.T) {
	for _, failing := range []int{-1, 0, 1, 2} {
		for _, jobs := range []int{1, 4} {
			res := &jsonResults{}
			setters := []func(){
				func() { res.Fig4 = &experiments.Fig4Data{} },
				func() { res.Jitter = []experiments.JitterResult{{}} },
				func() { res.Granularity = []experiments.GranularityComparison{{}} },
			}
			var sections []func(io.Writer) (bool, error)
			for i, set := range setters {
				sections = append(sections, func(w io.Writer) (bool, error) {
					time.Sleep(time.Duration(3-i) * time.Millisecond)
					set()
					fmt.Fprintf(w, "section %d\n", i)
					return i != failing, nil
				})
			}
			path := filepath.Join(t.TempDir(), "out.json")
			var buf bytes.Buffer
			ok, err := run(&buf, sections, jobs, res, path)
			if err != nil {
				t.Fatalf("failing=%d jobs=%d: %v", failing, jobs, err)
			}
			if want := failing < 0; ok != want {
				t.Errorf("failing=%d jobs=%d: run ok = %v, want %v", failing, jobs, ok, want)
			}
			if buf.String() != "section 0\nsection 1\nsection 2\n" {
				t.Errorf("failing=%d jobs=%d: tables = %q", failing, jobs, buf.String())
			}
			doc, keys := readDoc(t, path)
			if got := string(doc["shapeChecksPassed"]); got != fmt.Sprint(ok) {
				t.Errorf("failing=%d jobs=%d: shapeChecksPassed = %s, run ok = %v", failing, jobs, got, ok)
			}
			want := []string{"fig4", "granularityComparison", "jitterAblation", "shapeChecksPassed"}
			if !slices.Equal(keys, want) {
				t.Errorf("failing=%d jobs=%d: keys = %v, want %v", failing, jobs, keys, want)
			}
		}
	}
}

// TestSelectSectionsJSONKeys runs real sections through the -experiment
// selection and checks each document holds exactly that section's keys.
func TestSelectSectionsJSONKeys(t *testing.T) {
	for _, tc := range []struct {
		experiment string
		keys       []string
	}{
		{"fig4", []string{"fig4", "shapeChecksPassed"}},
		{"comparisons", []string{"granularityComparison", "l2Comparison", "pageColorComparison", "pipelineDynamic", "shapeChecksPassed"}},
	} {
		res := &jsonResults{}
		sections, err := selectSections(tc.experiment, true, 2, res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out.json")
		ok, err := run(io.Discard, sections, 2, res, path)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", tc.experiment, ok, err)
		}
		doc, keys := readDoc(t, path)
		if !slices.Equal(keys, tc.keys) {
			t.Errorf("%s: keys = %v, want %v", tc.experiment, keys, tc.keys)
		}
		if string(doc["shapeChecksPassed"]) != "true" {
			t.Errorf("%s: shapeChecksPassed = %s", tc.experiment, doc["shapeChecksPassed"])
		}
	}
	if _, err := selectSections("fig6", false, 1, &jsonResults{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}
