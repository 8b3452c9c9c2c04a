package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/mcheck"
	"repro/internal/system"
)

// pinsJSON maps "<workload>/<job name>" to the digest of that job's
// simulated statistics. `perfbench -pin perfbench/pins.json` regenerates it;
// a change that alters simulated results on purpose re-pins it in a change
// of its own.
//
//go:embed pins.json
var pinsJSON []byte

type pins map[string]string

func loadPins() (pins, error) {
	p := pins{}
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// check compares a job's digest with its pin; a missing pin is a mismatch.
func (p pins) check(workload string, j job, digest string) error {
	key := workload + "/" + j.name
	want, ok := p[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if want != digest {
		return fmt.Errorf("%s: simulated statistics changed: digest %s, pinned %s", key, digest, want)
	}
	return nil
}

// simDigest hashes every simulated statistic of a run: Cycles, EventsRun
// and every Results counter, rate and energy figure. The config is left
// out: it names trace files by path, which differs between checkouts.
func simDigest(r *system.Results) string {
	c := *r
	c.Config = system.Config{}
	b, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("marshal results: %v", err)) // Results is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// mcheckJobDigest renders the counts each exploration must reproduce. Any
// violation makes it differ from the pin, which records zero. It is
// order-insensitive, so the seed's choice of which organization runs
// first does not change the pin.
func mcheckJobDigest(rs []*mcheck.Result) string {
	sorted := append([]*mcheck.Result(nil), rs...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].Kind < sorted[k].Kind })
	s := ""
	for _, r := range sorted {
		s += fmt.Sprintf("%s:states=%d,transitions=%d,quiescent=%d,depth=%d,violations=%d;",
			r.Kind, r.States, r.Transitions, r.Quiescent, r.Depth, len(r.Violations))
	}
	return s
}

// pinAll runs every job of every pool seed once and writes the digests to
// path. psim-64 is pinned at Shards=1 and must agree at Shards=2.
func pinAll(path, dir string) error {
	out := pins{}
	for _, w := range allWorkloads {
		seen := map[string]bool{}
		// Every pool seed appears in the job list of some workload seed;
		// walking seeds until all pool entries are covered pins them all.
		for seed := int64(0); len(seen) < poolEntries(w); seed++ {
			jobs, err := w.jobs(seed, dir)
			if err != nil {
				return err
			}
			for _, j := range jobs {
				if seen[j.name] {
					continue
				}
				seen[j.name] = true
				var digest string
				if w.name == "psim-64" {
					one := *j.sim
					one.Shards = 1
					r1, err := system.Run(one)
					if err != nil {
						return fmt.Errorf("%s %s: %w", w.name, j.name, err)
					}
					r2, err := system.Run(*j.sim)
					if err != nil {
						return fmt.Errorf("%s %s: %w", w.name, j.name, err)
					}
					if simDigest(r1) != simDigest(r2) {
						return fmt.Errorf("%s %s: Shards=2 differs from Shards=1", w.name, j.name)
					}
					digest = simDigest(r1)
				} else {
					o := runJob(j)
					if o.err != nil {
						return fmt.Errorf("%s %s: %w", w.name, j.name, o.err)
					}
					digest = o.digest
				}
				out[w.name+"/"+j.name] = digest
			}
		}
		fmt.Fprintf(os.Stderr, "pinned %s: %d jobs\n", w.name, len(seen))
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// poolEntries is the number of distinct job names a workload's pool holds.
func poolEntries(w workload) int {
	switch w.name {
	case "dir-conflict-16":
		return 3 * poolSize
	case "scale-256":
		return 2 * poolSize
	case "mcheck-2x2":
		return 1
	}
	return poolSize
}
