package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/system"
)

// Key returns the canonical cache key of a configuration: the hex-encoded
// (truncated) SHA-256 of the model version and the config's canonical JSON
// encoding. Two configs produce the same key exactly when every field —
// workload selection, machine geometry, protocol knobs, seed — is equal and
// the same model simulates them, so a key identifies one deterministic
// simulation outcome. Keys are stable across processes and restarts, which
// is what lets the disk cache survive them; a system.ModelVersion bump
// changes every key, so results of an earlier model are never hits.
func Key(cfg system.Config) (string, error) {
	return keyFor(system.ModelVersion, cfg)
}

// keyFor is Key under the given model version.
func keyFor(version string, cfg system.Config) (string, error) {
	// encoding/json emits struct fields in declaration order and Config
	// contains no maps, so the encoding is canonical.
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("runner: canonicalize config: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
