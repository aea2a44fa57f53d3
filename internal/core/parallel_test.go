package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"waferscale/internal/fault"
)

// The analyses in this package fan out on internal/parallel; every one
// must produce bit-identical results at any worker count. These are
// the package's differential serial-vs-parallel tests.

func TestRunChaosWorkerInvariance(t *testing.T) {
	d := NewDesign()
	cfg := smallChaosConfig()
	cfg.TrialWorkers = 1
	ref, err := d.RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
		cfg.TrialWorkers = workers
		got, err := d.RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("TrialWorkers=%d changed the survival curve:\n%v\nvs serial\n%v", workers, got, ref)
		}
	}
}

func TestWriteFullReportWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	serial := NewDesign()
	serial.Workers = 1
	fm := fault.NewMap(serial.Cfg.Grid())
	var refBuf bytes.Buffer
	if err := serial.WriteFullReport(context.Background(), &refBuf, fm, 2, 11, nil); err != nil {
		t.Fatal(err)
	}
	par := NewDesign()
	par.Workers = 0 // GOMAXPROCS
	var gotBuf bytes.Buffer
	if err := par.WriteFullReport(context.Background(), &gotBuf, fm, 2, 11, nil); err != nil {
		t.Fatal(err)
	}
	if gotBuf.String() != refBuf.String() {
		t.Error("parallel report differs from serial report")
	}
}

func TestSweepArraySizeWorkerInvariance(t *testing.T) {
	sides := []int{8, 12, 16}
	serial := NewDesign()
	serial.Workers = 1
	ref, err := serial.SweepArraySizeCtx(context.Background(), sides, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(sides) {
		t.Fatalf("got %d points, want %d", len(ref), len(sides))
	}
	par := NewDesign()
	par.Workers = 4
	got, err := par.SweepArraySizeCtx(context.Background(), sides, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("parallel sweep differs:\n%v\nvs serial\n%v", got, ref)
	}
}

func TestExploreParetoWorkerInvariance(t *testing.T) {
	space := ParetoSpace{Sides: []int{8, 12}, EdgeV: []float64{2.0, 2.5}, Pillars: []int{1, 2}}
	serial := NewDesign()
	serial.Workers = 1
	ref, err := serial.ExploreParetoCtx(context.Background(), space, ParetoOpts{})
	if err != nil {
		t.Fatal(err)
	}
	par := NewDesign()
	par.Workers = 4
	got, err := par.ExploreParetoCtx(context.Background(), space, ParetoOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.All, ref.All) || !reflect.DeepEqual(got.Frontier, ref.Frontier) {
		t.Errorf("parallel Pareto exploration differs from serial")
	}
}
