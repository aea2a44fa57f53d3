package sim

// SetFullScan switches m between the runnable-list fast path and the
// reference full scan. It lets differential tests in package sim_test,
// which may import internal/workload without an import cycle, step one
// machine on each engine.
func SetFullScan(m *Machine, on bool) { m.fullScan = on }
