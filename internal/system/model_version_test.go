package system

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// modelGoldens pins each ModelVersion to the SHA-256 over the serial and
// psim golden fixtures its model produces. Entries are append-only: a model
// change that re-pins the goldens bumps ModelVersion and adds its digest
// here, so an -update without a bump fails below.
var modelGoldens = map[string]string{
	"1": "53f55f9db34455e08570ee1a3209e1418985c5de6350de6a5fbc8d14426a42ce",
}

// goldenDigest hashes every golden fixture, each framed by its name and
// length, in a fixed order.
func goldenDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, prefix := range []string{"golden_", "psim_golden_"} {
		for _, kind := range DirKinds() {
			for _, shuffle := range goldenShuffleSeeds {
				name := prefix + golName(kind, shuffle) + ".json"
				b, err := os.ReadFile(filepath.Join("testdata", name))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %d\n", name, len(b))
				h.Write(b)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelVersionPinsGoldens ties the cache-key model version to what the
// model computes: the golden fixtures cannot change under an unchanged
// ModelVersion, so a shared result cache cannot serve an older model's
// results as hits.
func TestModelVersionPinsGoldens(t *testing.T) {
	got := goldenDigest(t)
	want, ok := modelGoldens[ModelVersion]
	if !ok {
		t.Fatalf("ModelVersion %q has no entry in modelGoldens; pin it to the current golden digest %s", ModelVersion, got)
	}
	if got != want {
		t.Fatalf("golden fixtures changed (digest %s) but ModelVersion is still %q, pinned to %s: "+
			"bump ModelVersion and pin the new digest under it", got, ModelVersion, want)
	}
}
