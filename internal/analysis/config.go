package analysis

import "regexp"

// This file is the single shared configuration table for every
// package-gated rule in the suite. Earlier revisions kept one ad-hoc
// package list per analyzer file (the determinism list, the rawgo pool
// allowlist, the telemetry carve-outs), which drifted as packages were
// added to one rule but not its siblings; all path scoping now lives
// here so a new package is classified exactly once.
//
// Paths are import-path suffixes matched on whole elements (see
// hasSuffixPath), so the table works for the real module path and for
// the fixture prefix used by the tests alike.

// Scope is the project contract map: which packages each rule binds.
var Scope = struct {
	// Deterministic packages are bound by the PR 2 reproducibility
	// contract: byte-identical results across 1..N workers for a fixed
	// seed. The determinism rule forbids wall-clock reads, the global
	// math/rand stream, and order-sensitive map iteration here.
	Deterministic []string
	// RNGSeam is the one sanctioned wrapper around math/rand.
	RNGSeam string
	// ClockSeam is the package whose exported Clock interface
	// implementations may read the wall clock (telemetry in production).
	ClockSeam string
	// Pool packages may spawn goroutines (rawgo) — and, in exchange,
	// every goroutine they spawn must have a provable join or cancel
	// path (leakcheck).
	Pool []string
	// Ctx packages host blocking operations (dials, RPC calls, channel
	// waits) that must thread a context.Context so a long-running server
	// can cancel them; context.Background()/TODO() roots are confined to
	// package main, tests, and waived compat shims (ctxflow).
	Ctx []string
	// Lock packages carry the mutex discipline of the metric registry,
	// the cache store, and the fleet scheduler: no lock value copies, no
	// Lock without a same-function Unlock, no blocking operation while a
	// lock is held (lockcheck).
	Lock []string
	// Hot packages are the surrogate scoring inner loop — the annealer's
	// energy down to the GP posterior, feature decoding and prior scorer
	// — and the nn training step; allocation-causing constructs on paths
	// reachable from the hot roots are flagged there (allocpath).
	Hot []string
	// HotRoots names the entry points whose call graphs define the
	// scoring and training paths inside the hot packages.
	HotRoots *regexp.Regexp
}{
	Deterministic: []string{
		"internal/anneal",
		"internal/gbt",
		"internal/sampler",
		"internal/acq",
		"internal/nn",
		"internal/rng",
		"internal/prior",
		"internal/space",
		"internal/telemetry",
	},
	RNGSeam:   "internal/rng",
	ClockSeam: "internal/telemetry",
	Pool: []string{
		"internal/parallel",
		"internal/fleet",
		"internal/measure",
		"internal/telemetry",
		"internal/server",
		"cmd/glimpsetop",
	},
	Ctx: []string{
		"internal/fleet",
		"internal/measure",
		"internal/rpc",
		"internal/cache",
		"internal/server",
		"internal/telemetry",
		"cmd/glimpsetop",
	},
	Lock: []string{
		"internal/telemetry",
		"internal/cache",
		"internal/fleet",
		"internal/measure",
		"internal/parallel",
		"internal/tlog",
		"internal/server",
		"internal/tuner",
		"cmd/glimpsetop",
	},
	Hot: []string{
		"internal/gbt",
		"internal/nn",
		"internal/acq",
		"internal/anneal",
		"internal/sampler",
		"internal/gp",
		"internal/mat",
		"internal/space",
		"internal/prior",
	},
	HotRoots: regexp.MustCompile(`^(Predict|Score|Infer|Select|Run|Sample|Forward|Backward|Fit|Features|Neighbor|LogProb|Cholesky|Solve)`),
}

// inScope reports whether the package path falls under any suffix in the
// list.
func inScope(pkgPath string, list []string) bool {
	for _, suffix := range list {
		if hasSuffixPath(pkgPath, suffix) {
			return true
		}
	}
	return false
}
