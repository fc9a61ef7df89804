package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSON checks BENCHMARK.json against the limits its readers
// rely on, and that every workload it names is one this program runs.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if n := len(spec.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(spec.Paths); n == 0 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}

	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		used[n] = true
	}
	runs := map[string]bool{"suite": true, "warm": true}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if !runs[w.Name] {
			t.Errorf("workload %q is not one this program runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(list []metricSpec, max int, e2e bool) {
		if len(list) == 0 || len(list) > max {
			t.Errorf("%d metrics in a list of at most %d", len(list), max)
		}
		for _, m := range list {
			name(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if e2e && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
			if !e2e && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has a bound", m.Name)
			}
		}
	}
	check(spec.EndToEnd, 16, true)
	check(spec.PerLayer, 128, false)

	var setup *metricSpec
	largest := 0.0
	for i, m := range spec.EndToEnd {
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be listed in s, lower, with the largest bound: %+v", setup)
	}
}
