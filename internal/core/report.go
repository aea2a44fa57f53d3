package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"waferscale/internal/fault"
	"waferscale/internal/parallel"
	"waferscale/internal/pdn"
)

// WriteFullReport runs every analysis on the design against the fault
// map and writes a human-readable engineering report — the one-stop
// rendering used by cmd/waferscale and the quickstart example.
//
// The section analyses are independent, so they fan out on the shared
// bounded pool (d.Workers goroutines, 0 = GOMAXPROCS) and the report
// is rendered serially afterwards — the output is byte-identical at
// any worker count.
//
// The analyses stop at ctx's cancellation. progress, when non-nil, is
// called after each Fig. 6 Monte Carlo trial, the bulk of the run, with
// the trials done and the total; it must be safe for concurrent use.
func (d *Design) WriteFullReport(ctx context.Context, w io.Writer, fm *fault.Map, mcTrials int, seed int64, progress func(done, total int)) error {
	if err := d.Validate(); err != nil {
		return err
	}

	var (
		power *PowerReport
		clk   *ClockReport
		yld   *YieldReport
		net   *NetworkReport
		tst   *TestReport
		sub   *SubstrateReport
		tr    *TransientReport
		fr    *FrequencyReport
		pl    *PlacementReport
		kgd   *KGDReport
		iop   *IOPowerReport
	)
	err := parallel.Do(ctx, d.Workers,
		// The transient and frequency closures read the one droop map.
		func() (e error) {
			if power, e = d.AnalyzePower(); e != nil {
				return e
			}
			if tr, e = d.AnalyzeTransient(power); e != nil {
				return e
			}
			fr, e = d.AnalyzeFrequency(power)
			return e
		},
		func() (e error) { clk, e = d.AnalyzeClock(fm); return },
		func() (e error) { yld, e = d.AnalyzeYield(); return },
		func() (e error) { net, e = d.AnalyzeNetwork(ctx, []int{1, 5, 10}, mcTrials, seed, progress); return },
		func() (e error) { tst, e = d.AnalyzeTest(); return },
		func() (e error) { sub, e = d.AnalyzeSubstrate(); return },
		func() (e error) { pl, e = d.AnalyzePlacement(fm, 4); return },
		func() (e error) { kgd, e = d.AnalyzeKGD(0.90); return },
		func() error { iop = d.AnalyzeIOPower(); return nil },
	)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, d.FormatSpec())
	fmt.Fprintf(w, "Power delivery (Section III / Fig. 2)\n")
	fmt.Fprintf(w, "  edge supply           %.2f V\n", d.Cfg.EdgeSupplyVolts)
	fmt.Fprintf(w, "  center-of-wafer       %.2f V at tile %v\n", power.MinVolt, power.MinAt)
	fmt.Fprintf(w, "  plane resistive loss  %.1f W\n", power.ResistiveLossW)
	fmt.Fprintf(w, "  LDO headroom loss     %.1f W\n", power.Regulation.TotalLDOLossW)
	fmt.Fprintf(w, "  edge power draw       %.0f W\n", power.EdgePowerW)
	fmt.Fprintf(w, "  tiles in regulation   %d/%d (window %.1f-%.1f V)\n",
		power.Regulation.TilesInRegulation, d.Cfg.Tiles(), d.LDO.MinOutV, d.LDO.MaxOutV)
	fmt.Fprintf(w, "%s\n", pdn.FormatComparison(power.Strategies))

	fmt.Fprintf(w, "Clocking (Section IV / Fig. 4)\n")
	fmt.Fprintf(w, "  passive CDN limit     %.0f kHz (why forwarding is needed)\n", clk.PassiveCDNMaxHz/1e3)
	fmt.Fprintf(w, "  generator candidates  %d healthy edge tiles\n", clk.GeneratorChoices)
	fmt.Fprintf(w, "  clocked tiles         %d/%d healthy\n", clk.Resiliency.ClockedTiles, clk.Resiliency.HealthyTiles)
	fmt.Fprintf(w, "  clock-starved tiles   %v\n", clk.Resiliency.UnreachedTiles)
	fmt.Fprintf(w, "  naive 5%%/hop DCD      clock dies after %d hops\n", clk.NaiveKillDepth)
	fmt.Fprintf(w, "  inverted forwarding   worst duty error %.1f%%\n", clk.InvertedWorst*100)
	fmt.Fprintf(w, "  inversion + DCC       worst duty error %.1f%%\n\n", clk.DCCWorst*100)

	fmt.Fprintf(w, "I/O and bonding yield (Section V / Fig. 5)\n")
	fmt.Fprintf(w, "  chiplet yield         %.2f%% (1 pillar/pad) -> %.3f%% (%d pillars/pad)\n",
		yld.Comparison.SingleChipletYield*100, yld.Comparison.DualChipletYield*100, d.PillarsPerPad)
	fmt.Fprintf(w, "  expected bad chiplets %.0f -> %.2f of %d\n",
		yld.Comparison.SingleExpectedBad, yld.Comparison.DualExpectedBad, d.Cfg.Chiplets())
	fmt.Fprintf(w, "  I/O energy            %.3f pJ/bit\n", yld.EnergyPerBitPJ)
	fmt.Fprintf(w, "  compute I/O area      %.2f mm2\n\n", yld.IOAreaMM2)

	fmt.Fprintf(w, "Network resiliency (Section VI / Fig. 6, %d trials)\n", mcTrials)
	fmt.Fprintf(w, "  aggregate bandwidth   %.2f TB/s\n", net.Bandwidth.AggregateBps/1e12)
	fmt.Fprintf(w, "  %8s  %16s  %16s\n", "faults", "1 net disc.%", "2 nets disc.%")
	for _, p := range net.Fig6 {
		fmt.Fprintf(w, "  %8d  %16.2f  %16.3f\n", p.Faults, p.PctSingle.Mean, p.PctDual.Mean)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "Test infrastructure (Section VII)\n")
	fmt.Fprintf(w, "  full-wafer load       %v (1 chain) -> %v (%d chains), %.1fx\n",
		tst.SingleChainLoad.Round(time.Minute), tst.MultiChainLoad.Round(time.Second),
		d.Cfg.JTAGChains, tst.ChainSpeedup)
	fmt.Fprintf(w, "  broadcast mode        %.0fx shift-latency reduction\n\n", tst.BroadcastSpeedup)

	fmt.Fprintf(w, "Substrate (Section VIII)\n")
	fmt.Fprintf(w, "  reticle exposures     %dx%d (12x6 tiles each, stitched)\n", sub.ReticlesX, sub.ReticlesY)
	fmt.Fprintf(w, "  tile-pair nets routed %d jog-free, %d DRC violations\n", sub.RoutedNets, sub.DRCViolations)
	fmt.Fprintf(w, "  1-layer fallback      alive=%v, shared capacity -%.0f%%\n\n",
		sub.FallbackAlive, sub.FallbackCapacityLoss)

	fmt.Fprintf(w, "Closure checks\n")
	fmt.Fprintf(w, "  LDO transient         %.0f mV undershoot at Vin=%.2f V (window ok=%v); min decap %.1f nF\n",
		tr.UndershootV*1000, tr.WorstInputV, tr.InWindow, tr.MinDecapF*1e9)
	fmt.Fprintf(w, "  frequency closure     worst tile %.2f V -> fmax %.0f MHz (300 MHz ok=%v, 400 MHz ok=%v)\n",
		fr.WorstRegulatedV, fr.SystemFMaxHz/1e6, fr.NominalOK, fr.PLLCeilingOK)
	fmt.Fprintf(w, "  clock placement       1 gen: %d max hops; %d gens: %d max hops\n",
		pl.Single.MaxHops, pl.K, pl.Multi.MaxHops)
	fmt.Fprintf(w, "  KGD screening         %.0f faulty sites unscreened -> %.2f screened (die yield %.0f%%)\n",
		kgd.FaultySitesNoKGD, kgd.FaultySitesKGD, kgd.DieYield*100)
	fmt.Fprintf(w, "  I/O power             %.1f W Si-IF vs %.0f W off-package (%.0fx)\n",
		iop.SiIFPowerW, iop.OffPackagePowerW, iop.Advantage)
	return nil
}
