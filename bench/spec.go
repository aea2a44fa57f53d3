package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of
// the base median by which the metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the run
// length, the workload names and the metric lists it must emit.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, w := range sp.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			return nil, fmt.Errorf("%s names workload %q, which the harness does not define", path, w.Name)
		}
	}
	return &sp, nil
}

// metrics returns the end-to-end list, or the per-layer list for a
// traced run.
func (sp *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}
