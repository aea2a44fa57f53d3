// Package serve is the simulation-as-a-service layer: it exposes the
// repository's analyses (droop solves, Fig. 6 network Monte Carlo,
// chaos survival sweeps, NoC throughput curves, DSE and Pareto
// exploration, the full engineering report) as asynchronous jobs
// behind a stdlib-only HTTP/JSON API.
//
// Design-space exploration is an interactive, repetitive workload —
// many near-duplicate parameter-sweep queries — so the server is built
// around three ideas: a bounded priority job queue with admission
// control (saturation answers 429, never queues unboundedly), a
// content-addressed result cache keyed by the canonical JSON of the
// fully-defaulted request spec (identical questions are computed
// once), and single-flight deduplication of identical in-flight
// requests (concurrent identical submissions join the same job). A
// CPU-token budget layered on internal/parallel partitions GOMAXPROCS
// between co-scheduled jobs so their internal fan-out never
// oversubscribes the host.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"waferscale/internal/core"
	"waferscale/internal/noc"
	"waferscale/internal/workload"
)

// normalizeModel canonicalizes a timing-backend field: "" defaults to
// the exact cycle engine, and only the two registered backend names are
// accepted. The normalized value lands in the cache key, which is what
// keeps approximate and exact results from ever aliasing.
func normalizeModel(m *string, kind string) error {
	*m = strings.ToLower(strings.TrimSpace(*m))
	switch *m {
	case "":
		*m = noc.ModelNameCycle
	case noc.ModelNameCycle, noc.ModelNameAnalytical:
	default:
		return fmt.Errorf("serve: %s model %q (want %s|%s)", kind, *m, noc.ModelNameCycle, noc.ModelNameAnalytical)
	}
	return nil
}

// normalizeTopologyField canonicalizes a NoC-topology field: the name
// is normalized by noc.NormalizeTopology and the default mesh collapses
// to "". The field is declared `json:"topology,omitempty"`, so the
// canonical mesh spelling vanishes from the canonical JSON — specs
// written before the field existed keep their cache keys (absent and
// explicit "mesh" are the same question), while every non-mesh
// topology lands in the key and can never alias a mesh result.
func normalizeTopologyField(t *string, kind string, sides ...int) error {
	name, err := noc.NormalizeTopology(*t)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", kind, err)
	}
	if name == noc.TopoMesh {
		name = ""
	}
	if name == noc.TopoVertical {
		for _, s := range sides {
			if s%2 != 0 {
				return fmt.Errorf("serve: %s vertical topology needs even sides, got %d", kind, s)
			}
		}
	}
	*t = name
	return nil
}

// Spec is the content-addressed description of one analysis request.
// Exactly one kind-specific section is consulted (the one matching
// Kind); Normalize clears the others and fills every unset field of
// the active section with its default, so two requests that ask the
// same question — regardless of JSON field order, omitted defaults, or
// stray irrelevant sections — normalize to identical specs and hash to
// the same cache key.
type Spec struct {
	// Kind selects the analysis: droop | nocmc | chaos | throughput |
	// dse | pareto | report | workload.
	Kind string `json:"kind"`

	Droop      *DroopSpec      `json:"droop,omitempty"`
	NoCMC      *NoCMCSpec      `json:"nocmc,omitempty"`
	Chaos      *ChaosSpec      `json:"chaos,omitempty"`
	Throughput *ThroughputSpec `json:"throughput,omitempty"`
	DSE        *DSESpec        `json:"dse,omitempty"`
	Pareto     *ParetoSpec     `json:"pareto,omitempty"`
	Report     *ReportSpec     `json:"report,omitempty"`
	Workload   *WorkloadSpec   `json:"workload,omitempty"`
}

// DroopSpec parametrizes a Fig. 2 power-delivery solve.
type DroopSpec struct {
	// Side is the tile-array side; 0 means the prototype's 32.
	Side int `json:"side"`
	// EdgeVolts is the edge-ring supply; 0 means the prototype's 2.5 V.
	EdgeVolts float64 `json:"edgeVolts"`
}

// NoCMCSpec parametrizes the Fig. 6 disconnected-pairs Monte Carlo.
type NoCMCSpec struct {
	Trials    int   `json:"trials"`    // per fault count; 0 -> 16
	Seed      int64 `json:"seed"`      // 0 -> 2021
	MaxFaults int   `json:"maxFaults"` // sweep ceiling; 0 -> 20
	Chiplet   bool  `json:"chiplet"`   // fault at chiplet granularity
	// Topology names the NoC link graph the tile-granularity sweep runs
	// on ("" = mesh; see noc.TopologyNames). Chiplet-granularity sweeps
	// are mesh-only: a dead memory chiplet blocks its tile's N and S
	// out-ports because the mesh's vertical links cross its
	// feedthroughs, and no rule yet says which ports of the other link
	// graphs do. Cache-keyed; mesh canonicalizes to "".
	Topology string `json:"topology,omitempty"`
}

// ChaosSpec parametrizes a runtime-fault survival sweep; zero fields
// take the defaults of core.DefaultChaosConfig.
type ChaosSpec struct {
	Side      int   `json:"side"`
	Workers   int   `json:"workers"` // simulated BFS worker cores
	Trials    int   `json:"trials"`
	Seed      int64 `json:"seed"`
	Kills     []int `json:"kills"`
	KillFrom  int64 `json:"killFrom"`
	KillTo    int64 `json:"killTo"`
	MaxCycles int64 `json:"maxCycles"`
	GraphSide int   `json:"graphSide"`
}

// ThroughputSpec parametrizes a NoC latency-throughput sweep.
type ThroughputSpec struct {
	Side   int       `json:"side"`   // 0 -> 8
	Faults int       `json:"faults"` // random faulty tiles
	Seed   int64     `json:"seed"`   // 0 -> 1
	Rates  []float64 `json:"rates"`  // offered injection rates; empty -> default curve
	// Model picks the timing backend: "cycle" (default, packet
	// simulation) or "analytical" (closed-form queueing model). The
	// field is part of the cache key, so approximate and exact sweeps
	// never share a cached result.
	Model string `json:"model"`
	// Topology names the NoC link graph ("" = mesh; vertical needs an
	// even side). Cache-keyed; mesh canonicalizes to "".
	Topology string `json:"topology,omitempty"`
}

// DSESpec parametrizes the array-size design sweep.
type DSESpec struct {
	Sides []int `json:"sides"` // empty -> {8, 16, 24, 32, 40, 48}
	// Model picks the evaluation backend: "cycle" (default) or
	// "analytical". Cache-keyed, like ThroughputSpec.Model.
	Model string `json:"model"`
	// Topology names the NoC link graph the per-side probes run on
	// ("" = mesh; vertical needs even sides). Cache-keyed; mesh
	// canonicalizes to "".
	Topology string `json:"topology,omitempty"`
}

// ParetoSpec parametrizes the (throughput, power, yield) exploration;
// an empty grid axis takes its values from core.DefaultParetoSpace.
type ParetoSpec struct {
	Sides   []int     `json:"sides"`
	EdgeV   []float64 `json:"edgeV"`
	Pillars []int     `json:"pillars"`
	// Mode selects the evaluation strategy: "exact" (default,
	// exhaustive cycle-accurate), "screen" (exhaustive analytical fast
	// path — approximate, labeled as such), or "twotier" (analytical
	// screen, cycle-accurate verification of the survivors). Part of
	// the cache key: approximate and exact frontiers never alias.
	Mode string `json:"mode"`
	// TopK and BandPct tune the two-tier survivor selection (only
	// meaningful — and only cache-keyed — when Mode is "twotier";
	// normalization zeroes them otherwise). 0 -> the core defaults.
	TopK    int     `json:"topK"`
	BandPct float64 `json:"bandPct"`
	// Topology names the NoC link graph behind every evaluated design
	// point ("" = mesh; vertical needs even sides). Cache-keyed; mesh
	// canonicalizes to "".
	Topology string `json:"topology,omitempty"`
}

// WorkloadSpec parametrizes one operator-graph run: a built-in graph
// compiled onto a machine, executed, and verified against the host
// reference.
type WorkloadSpec struct {
	// Graph names a built-in graph ("" = transformer). Arbitrary JSON
	// graphs stay in the offline CLI (`waferscale workload -graph`):
	// the daemon's cache keys must describe bounded, nameable work.
	Graph string `json:"graph"`
	// Tokens/Dim/Experts size the built-in graph; 0 -> its defaults.
	Tokens  int `json:"tokens"`
	Dim     int `json:"dim"`
	Experts int `json:"experts"`
	// Side is the machine array side; 0 -> 8.
	Side int `json:"side"`
	// Topology names the NoC link graph ("" = mesh; vertical needs an
	// even side). Cache-keyed; mesh canonicalizes to "".
	Topology string `json:"topology,omitempty"`
	// Placement names the tensor-placement policy ("" = rowmajor; see
	// workload.PlacementNames). Cache-keyed; rowmajor canonicalizes to
	// "", mirroring the topology field, so the default spelling never
	// fragments keys and non-default policies can never alias it.
	Placement string `json:"placement,omitempty"`
}

// ReportSpec parametrizes the full engineering report.
type ReportSpec struct {
	Faults int   `json:"faults"` // random faulty tiles; -1 -> none, 0 -> 5
	Trials int   `json:"trials"` // Monte Carlo trials; 0 -> 8
	Seed   int64 `json:"seed"`   // 0 -> 2021
}

// Kinds lists the accepted Spec.Kind values.
func Kinds() []string {
	return []string{"droop", "nocmc", "chaos", "throughput", "dse", "pareto", "report", "workload"}
}

// normalizePlacementField canonicalizes a placement-policy field the
// same way normalizeTopologyField treats the mesh: the name is
// validated by workload.NormalizePlacement and the default rowmajor
// collapses to "", so it vanishes from the canonical JSON under its
// `omitempty` tag and the default spelling never fragments cache keys.
func normalizePlacementField(p *string, kind string) error {
	name, err := workload.NormalizePlacement(strings.ToLower(strings.TrimSpace(*p)))
	if err != nil {
		return fmt.Errorf("serve: %s: %w", kind, err)
	}
	if name == workload.PlacementRowMajor {
		name = ""
	}
	*p = name
	return nil
}

// Limits that keep a single request from monopolizing the daemon.
// They bound the knobs that scale superlinearly; anything larger
// belongs in the offline CLI, not a shared service.
const (
	maxSide      = 64
	maxTrials    = 4096
	maxMaxCycles = 20_000_000
	maxSweepLen  = 64
)

// Normalize validates the spec, fills every unset field of the active
// section with its default, and clears the sections of the other
// kinds. After Normalize, semantically identical requests are
// structurally identical, which is what makes CacheKey content-
// addressed. It must be called before CacheKey or Run.
func (s *Spec) Normalize() error {
	s.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	droop, nocmc, chaos, tp, dse, pareto, report, wl := s.Droop, s.NoCMC, s.Chaos, s.Throughput, s.DSE, s.Pareto, s.Report, s.Workload
	s.Droop, s.NoCMC, s.Chaos, s.Throughput, s.DSE, s.Pareto, s.Report, s.Workload = nil, nil, nil, nil, nil, nil, nil, nil
	switch s.Kind {
	case "droop":
		if droop == nil {
			droop = &DroopSpec{}
		}
		if droop.Side == 0 {
			droop.Side = 32
		}
		if droop.EdgeVolts == 0 {
			droop.EdgeVolts = 2.5
		}
		if droop.Side < 3 || droop.Side > maxSide {
			return fmt.Errorf("serve: droop side %d outside 3..%d", droop.Side, maxSide)
		}
		if droop.EdgeVolts <= 0 || droop.EdgeVolts > 10 {
			return fmt.Errorf("serve: droop edge supply %.3g V non-physical", droop.EdgeVolts)
		}
		s.Droop = droop
	case "nocmc":
		if nocmc == nil {
			nocmc = &NoCMCSpec{}
		}
		if nocmc.Trials == 0 {
			nocmc.Trials = 16
		}
		if nocmc.Seed == 0 {
			nocmc.Seed = 2021
		}
		if nocmc.MaxFaults == 0 {
			nocmc.MaxFaults = 20
		}
		if nocmc.Trials < 1 || nocmc.Trials > maxTrials {
			return fmt.Errorf("serve: nocmc trials %d outside 1..%d", nocmc.Trials, maxTrials)
		}
		if nocmc.MaxFaults < 1 || nocmc.MaxFaults > 1024 {
			return fmt.Errorf("serve: nocmc maxFaults %d outside 1..1024", nocmc.MaxFaults)
		}
		if err := normalizeTopologyField(&nocmc.Topology, "nocmc"); err != nil {
			return err
		}
		if nocmc.Chiplet && nocmc.Topology != "" {
			return fmt.Errorf("serve: nocmc chiplet-granularity sweep is mesh-only, got topology %q", nocmc.Topology)
		}
		s.NoCMC = nocmc
	case "chaos":
		if chaos == nil {
			chaos = &ChaosSpec{}
		}
		def := core.DefaultChaosConfig()
		if chaos.Side == 0 {
			chaos.Side = def.Side
		}
		if chaos.Workers == 0 {
			chaos.Workers = def.Workers
		}
		if chaos.Trials == 0 {
			chaos.Trials = def.Trials
		}
		if chaos.Seed == 0 {
			chaos.Seed = def.Seed
		}
		if len(chaos.Kills) == 0 {
			chaos.Kills = def.Kills
		}
		if chaos.KillFrom == 0 {
			chaos.KillFrom = def.KillWindow[0]
		}
		if chaos.KillTo == 0 {
			chaos.KillTo = def.KillWindow[1]
		}
		if chaos.MaxCycles == 0 {
			chaos.MaxCycles = def.MaxCycles
		}
		if chaos.GraphSide == 0 {
			chaos.GraphSide = def.GraphSide
		}
		if chaos.Side < 2 || chaos.Side > maxSide {
			return fmt.Errorf("serve: chaos side %d outside 2..%d", chaos.Side, maxSide)
		}
		if chaos.Trials < 1 || chaos.Trials > maxTrials {
			return fmt.Errorf("serve: chaos trials %d outside 1..%d", chaos.Trials, maxTrials)
		}
		if chaos.MaxCycles < 1 || chaos.MaxCycles > maxMaxCycles {
			return fmt.Errorf("serve: chaos maxCycles %d outside 1..%d", chaos.MaxCycles, maxMaxCycles)
		}
		if len(chaos.Kills) > maxSweepLen {
			return fmt.Errorf("serve: chaos sweeps %d kill counts, max %d", len(chaos.Kills), maxSweepLen)
		}
		for _, k := range chaos.Kills {
			if k < 0 || k > chaos.Side*chaos.Side {
				return fmt.Errorf("serve: chaos kill count %d outside 0..%d", k, chaos.Side*chaos.Side)
			}
		}
		s.Chaos = chaos
	case "throughput":
		if tp == nil {
			tp = &ThroughputSpec{}
		}
		if tp.Side == 0 {
			tp.Side = 8
		}
		if tp.Seed == 0 {
			tp.Seed = 1
		}
		if err := normalizeModel(&tp.Model, "throughput"); err != nil {
			return err
		}
		if len(tp.Rates) == 0 {
			tp.Rates = []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0}
		}
		if tp.Side < 2 || tp.Side > maxSide {
			return fmt.Errorf("serve: throughput side %d outside 2..%d", tp.Side, maxSide)
		}
		if tp.Faults < 0 || tp.Faults >= tp.Side*tp.Side {
			return fmt.Errorf("serve: throughput faults %d outside 0..%d", tp.Faults, tp.Side*tp.Side-1)
		}
		if len(tp.Rates) > maxSweepLen {
			return fmt.Errorf("serve: throughput sweeps %d rates, max %d", len(tp.Rates), maxSweepLen)
		}
		for _, r := range tp.Rates {
			if r <= 0 || r > 1 {
				return fmt.Errorf("serve: throughput rate %.3g outside (0, 1]", r)
			}
		}
		if err := normalizeTopologyField(&tp.Topology, "throughput", tp.Side); err != nil {
			return err
		}
		s.Throughput = tp
	case "dse":
		if dse == nil {
			dse = &DSESpec{}
		}
		if len(dse.Sides) == 0 {
			dse.Sides = []int{8, 16, 24, 32, 40, 48}
		}
		if err := normalizeModel(&dse.Model, "dse"); err != nil {
			return err
		}
		if len(dse.Sides) > maxSweepLen {
			return fmt.Errorf("serve: dse sweeps %d sides, max %d", len(dse.Sides), maxSweepLen)
		}
		for _, side := range dse.Sides {
			if side < 3 || side > maxSide {
				return fmt.Errorf("serve: dse side %d outside 3..%d", side, maxSide)
			}
		}
		if err := normalizeTopologyField(&dse.Topology, "dse", dse.Sides...); err != nil {
			return err
		}
		s.DSE = dse
	case "pareto":
		if pareto == nil {
			pareto = &ParetoSpec{}
		}
		def := core.DefaultParetoSpace()
		if len(pareto.Sides) == 0 {
			pareto.Sides = def.Sides
		}
		if len(pareto.EdgeV) == 0 {
			pareto.EdgeV = def.EdgeV
		}
		if len(pareto.Pillars) == 0 {
			pareto.Pillars = def.Pillars
		}
		pareto.Mode = strings.ToLower(strings.TrimSpace(pareto.Mode))
		switch pareto.Mode {
		case "":
			pareto.Mode = "exact"
		case "exact", "screen", "twotier":
		default:
			return fmt.Errorf("serve: pareto mode %q (want exact|screen|twotier)", pareto.Mode)
		}
		if pareto.Mode == "twotier" {
			if pareto.TopK == 0 {
				pareto.TopK = core.DefaultTopK
			}
			if pareto.BandPct == 0 {
				pareto.BandPct = core.DefaultBandPct
			}
			if pareto.TopK < 1 || pareto.TopK > 64 {
				return fmt.Errorf("serve: pareto topK %d outside 1..64", pareto.TopK)
			}
			if pareto.BandPct <= 0 || pareto.BandPct > 50 {
				return fmt.Errorf("serve: pareto bandPct %.3g outside (0, 50]", pareto.BandPct)
			}
		} else if pareto.TopK != 0 || pareto.BandPct != 0 {
			// Canonical form: the tuning knobs only exist in two-tier
			// mode, so they must not fragment exact/screen cache keys.
			pareto.TopK, pareto.BandPct = 0, 0
		}
		if n := len(pareto.Sides) * len(pareto.EdgeV) * len(pareto.Pillars); n > 256 {
			return fmt.Errorf("serve: pareto grid has %d points, max 256", n)
		}
		for _, side := range pareto.Sides {
			if side < 3 || side > maxSide {
				return fmt.Errorf("serve: pareto side %d outside 3..%d", side, maxSide)
			}
		}
		if err := normalizeTopologyField(&pareto.Topology, "pareto", pareto.Sides...); err != nil {
			return err
		}
		s.Pareto = pareto
	case "report":
		if report == nil {
			report = &ReportSpec{}
		}
		if report.Faults == 0 {
			report.Faults = 5
		}
		// -1 ("no faults") stays -1: it is the canonical form, so that
		// normalization is idempotent — mapping it to 0 would alias the
		// "default to 5" sentinel on the next pass and change the spec
		// (and its cache key) across a journal round trip.
		if report.Trials == 0 {
			report.Trials = 8
		}
		if report.Seed == 0 {
			report.Seed = 2021
		}
		if report.Faults < -1 || report.Faults > 1024 {
			return fmt.Errorf("serve: report faults %d outside -1..1024", report.Faults)
		}
		if report.Trials < 1 || report.Trials > maxTrials {
			return fmt.Errorf("serve: report trials %d outside 1..%d", report.Trials, maxTrials)
		}
		s.Report = report
	case "workload":
		if wl == nil {
			wl = &WorkloadSpec{}
		}
		wl.Graph = strings.ToLower(strings.TrimSpace(wl.Graph))
		if wl.Graph == "" {
			wl.Graph = "transformer"
		}
		if wl.Side == 0 {
			wl.Side = 8
		}
		// Fill the size knobs with the builder's defaults so "transformer"
		// and an explicit "tokens 8, dim 8, experts 2" hash to the same
		// question, then bound them — bigger graphs belong in the offline
		// CLI, not a shared service.
		if wl.Tokens <= 0 {
			wl.Tokens = 8
		}
		if wl.Dim <= 0 {
			wl.Dim = 8
		}
		if wl.Experts <= 0 {
			wl.Experts = 2
		}
		if wl.Tokens > 64 || wl.Dim > 64 || wl.Experts > 16 {
			return fmt.Errorf("serve: workload graph %dx%d/%d experts too large (max 64x64/16)", wl.Tokens, wl.Dim, wl.Experts)
		}
		if _, err := workload.Builtin(wl.Graph, wl.Tokens, wl.Dim, wl.Experts); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if wl.Side < 2 || wl.Side > maxSide {
			return fmt.Errorf("serve: workload side %d outside 2..%d", wl.Side, maxSide)
		}
		if err := normalizeTopologyField(&wl.Topology, "workload", wl.Side); err != nil {
			return err
		}
		if err := normalizePlacementField(&wl.Placement, "workload"); err != nil {
			return err
		}
		s.Workload = wl
	case "":
		return fmt.Errorf("serve: missing kind (want one of %s)", strings.Join(Kinds(), "|"))
	default:
		return fmt.Errorf("serve: unknown kind %q (want one of %s)", s.Kind, strings.Join(Kinds(), "|"))
	}
	return nil
}

// CacheKey returns the content address of a normalized spec: the hex
// SHA-256 of its canonical JSON. encoding/json marshals struct fields
// in declaration order and the spec contains no maps, so the encoding
// — and therefore the key — is deterministic; Normalize guarantees
// that semantically identical requests reach here structurally
// identical. Calling CacheKey on a spec that has not been normalized
// is a bug (keys would fragment per client spelling).
func (s *Spec) CacheKey() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: spec marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
