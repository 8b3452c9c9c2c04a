package analysis

import "strings"

// Layer is a set of packages named by import-path suffix, the unit analyzers
// scope themselves by. Suffix matching (rather than exact paths) lets
// fixture modules exercise the same rules as the repo.
type Layer []string

// ServiceLayer is the concurrent run service: the job engine and its HTTP
// API.
var ServiceLayer = Layer{
	"internal/runner",
	"internal/stashd",
}

// SimulationLayer is the deterministic simulation core, the code the
// parallel engine runs on tile workers.
var SimulationLayer = Layer{
	"internal/sim",
	"internal/psim",
	"internal/coherence",
	"internal/core",
	"internal/noc",
	"internal/trace",
	"internal/cache",
	"internal/mem",
	"internal/system",
}

// Contains reports whether pkgPath is one of the layer's packages: a suffix
// itself, or a path ending in "/" plus a suffix.
func (l Layer) Contains(pkgPath string) bool {
	for _, s := range l {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
