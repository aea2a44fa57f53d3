package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// minPairs is the fewest base/head pairs a gain may rest on.
const minPairs = 10

// verdict is the comparison of one (workload, metric) pair.
type verdict struct {
	baseQ1, baseMed, baseQ3 float64
	headQ1, headMed, headQ3 float64
	// worse is how much worse the head median is than the base median,
	// as a share of the base median (negative when it is better).
	worse  float64
	wins   int // pairs the head run won, ties counting for neither
	losses int // pairs the base run won
	pairs  int
	result string
}

// judge compares head runs against base runs, paired by index (run
// them alternately). A regression is a head median worse than the base
// median by more than bound. A gain needs at least minPairs pairs, a
// head win in nine tenths of them, and a median difference larger
// than the base runs' own interquartile spread. Otherwise the metric
// is unresolved when either side's spread exceeds the bound (unless
// every head run beats every base run), and within bound when not.
// A metric without a bound (bound 0, the per-layer ones) is never a
// regression or unresolved; it can show a gain, or a loss by the
// mirror of the gain rule.
func judge(base, head []float64, better string, bound float64) verdict {
	var v verdict
	v.baseQ1, v.baseMed, v.baseQ3 = quartiles(base)
	v.headQ1, v.headMed, v.headQ3 = quartiles(head)
	sign := 1.0 // +1 when lower is better
	if better == "higher" {
		sign = -1
	}
	beats := func(h, b float64) bool { return sign*(b-h) > 0 }
	v.worse = sign * (v.headMed - v.baseMed) / math.Abs(v.baseMed)
	v.pairs = min(len(base), len(head))
	for i := 0; i < v.pairs; i++ {
		switch {
		case beats(head[i], base[i]):
			v.wins++
		case beats(base[i], head[i]):
			v.losses++
		}
	}
	allBeat := true
	for _, h := range head {
		for _, b := range base {
			allBeat = allBeat && beats(h, b)
		}
	}
	// settled: won nine tenths of enough pairs, by a median gap wider
	// than the base runs' spread.
	settled := func(won int) bool {
		return v.pairs >= minPairs && 10*won >= 9*v.pairs && math.Abs(v.headMed-v.baseMed) > v.baseQ3-v.baseQ1
	}
	spread := math.Max((v.baseQ3-v.baseQ1)/math.Abs(v.baseMed), (v.headQ3-v.headQ1)/math.Abs(v.headMed))
	switch {
	case bound > 0 && v.worse > bound:
		v.result = "regression"
	case settled(v.wins) && beats(v.headMed, v.baseMed):
		v.result = "gain"
	case bound == 0 && settled(v.losses) && beats(v.baseMed, v.headMed):
		v.result = "loss"
	case bound == 0:
		v.result = "no change shown"
	case spread > bound && !allBeat:
		v.result = "unresolved"
	default:
		v.result = "within bound"
	}
	return v
}

// failures sums the ops attempted and failed in one workload's runs,
// traced or not.
func failures(files []resultFile, workload string) (failed, attempted int) {
	for _, f := range files {
		for _, r := range f.Runs {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
	}
	return failed, attempted
}

func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baseList := fs.String("base", "", "comma-separated result files of the base commit")
	headList := fs.String("head", "", "comma-separated result files of the changed commit, in the same alternating order")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseList == "" || *headList == "" {
		return errors.New("compare needs -base and -head")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readResults(strings.Split(*baseList, ","))
	if err != nil {
		return err
	}
	head, err := readResults(strings.Split(*headList, ","))
	if err != nil {
		return err
	}
	if err := sameHost(append(base, head...)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-16s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "worse", "wins", "verdict")
	for _, wl := range sp.Workloads {
		bf, ba := failures(base, wl.Name)
		hf, ha := failures(head, wl.Name)
		if ba == 0 || ha == 0 {
			continue
		}
		// A head that fails more of its ops than the base regresses,
		// and none of its gains count.
		moreFailures := float64(hf)/float64(ha) > float64(bf)/float64(ba)
		failVerdict := "within bound"
		if moreFailures {
			failVerdict = "regression"
		}
		fmt.Fprintf(w, "%-12s %-16s %-32s %-32s %8s %6s  %s (bound 0)\n", wl.Name, "failed",
			fmt.Sprintf("%d of %d ops", bf, ba), fmt.Sprintf("%d of %d ops", hf, ha), "", "", failVerdict)
		// Metrics an untraced run measures: the end-to-end ones, then
		// per-layer throughput and latency.
		for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
			b, h := values(base, wl.Name, m.Name), values(head, wl.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v := judge(b, h, m.Better, m.Bound)
			if moreFailures && v.result == "gain" {
				v.result = "no gain: more ops failed"
			}
			bound := "no bound"
			if m.Bound > 0 {
				bound = fmt.Sprintf("bound %.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(w, "%-12s %-16s %-32s %-32s %7.1f%% %2d/%-3d  %s (%s)\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.baseMed, v.baseQ1, v.baseQ3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.headMed, v.headQ1, v.headQ3, m.Unit),
				100*v.worse, v.wins, v.pairs, v.result, bound)
		}
	}
	return nil
}

func readResults(paths []string) ([]resultFile, error) {
	var out []resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		out = append(out, rf)
	}
	return out, nil
}

// sameHost refuses results from hosts whose core count or toolchain
// differ: their timings are not comparable.
func sameHost(files []resultFile) error {
	for _, f := range files[1:] {
		a, b := files[0].Host, f.Host
		if a.GOMAXPROCS != b.GOMAXPROCS || a.NumCPU != b.NumCPU || a.GoVersion != b.GoVersion {
			return fmt.Errorf("results come from unlike hosts: %+v vs %+v", a, b)
		}
	}
	return nil
}

// values collects one metric of one workload's untraced runs, in file
// and run order.
func values(files []resultFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		for _, r := range f.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				out = append(out, v)
			}
		}
	}
	return out
}
