// Package leakcheck is the dynamic complement to the chanleak analyzer: a
// test helper that fails a test if goroutines it started are still running
// when it ends. The static analyzers prove send/receive contracts; leakcheck
// catches everything else — handlers that outlive their request, workers
// that miss a shutdown broadcast, waiters stuck on a channel nobody closes.
//
// Usage, as the first line of a test:
//
//	func TestSweep(t *testing.T) {
//		leakcheck.Check(t)
//		...
//	}
//
// Check snapshots the goroutines alive at call time and registers a cleanup
// that retries for a grace period (goroutines legitimately take a moment to
// unwind after Close), then reports the stacks of any stragglers. Register
// it before other cleanups: testing runs cleanups last-in-first-out, so the
// leak gate then observes the world after the test's own teardown.
package leakcheck

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// grace is how long stragglers get to unwind before they count as leaks.
const grace = 5 * time.Second

// ignorable marks stacks the runtime or stdlib parks for the whole process;
// they are nobody's leak.
var ignorable = []string{
	"testing.tRunner(",         // the test framework's own goroutines
	"testing.(*T).Run(",        // parents blocked on subtests
	"os/signal.signal_recv",    // signal delivery loop
	"os/signal.loop",           // its portable counterpart
	"net/http.(*persistConn).", // keep-alive client connections
	"runtime.ReadTrace",        // execution tracer
	"runtime.ensureSigM",       // signal mask goroutine
	"leakcheck.snapshot",       // the goroutine running the check itself
	"leakcheck.verify",
}

// Check arms the leak gate for one test. Call it first so its cleanup runs
// after every other cleanup the test registers.
func Check(t testing.TB) {
	t.Helper()
	base := snapshot()
	t.Cleanup(func() {
		if report, ok := verify(base, grace); !ok {
			t.Errorf("goroutines leaked by this test:\n\n%s", report)
		}
	})
}

// verify polls until every goroutine not in base is gone or the grace
// period lapses, returning the straggler stacks on failure.
func verify(base map[int64]bool, wait time.Duration) (string, bool) {
	deadline := time.Now().Add(wait)
	for {
		stragglers := diff(base)
		if len(stragglers) == 0 {
			return "", true
		}
		if time.Now().After(deadline) {
			return strings.Join(stragglers, "\n\n"), false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Running counts the goroutines with a frame in fn, a fully qualified
// function name such as "repro/internal/system.RunContext". Tests use it to
// prove that a stopped simulation has actually returned.
func Running(fn string) int {
	n := 0
	for _, s := range stacks() {
		if strings.Contains(s, "\n"+fn+"(") {
			n++
		}
	}
	return n
}

// snapshot records the IDs of every goroutine currently alive.
func snapshot() map[int64]bool {
	base := map[int64]bool{}
	for _, s := range stacks() {
		base[goroutineID(s)] = true
	}
	return base
}

// diff returns the stacks of goroutines that are neither in the baseline
// nor ignorable.
func diff(base map[int64]bool) []string {
	var out []string
	for _, s := range stacks() {
		if base[goroutineID(s)] {
			continue
		}
		skip := false
		for _, pat := range ignorable {
			if strings.Contains(s, pat) {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, s)
		}
	}
	return out
}

// stacks captures one block of text per live goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, s := range strings.Split(string(buf), "\n\n") {
		if strings.HasPrefix(s, "goroutine ") {
			out = append(out, strings.TrimRight(s, "\n"))
		}
	}
	return out
}

// goroutineID parses the "goroutine N [state]:" header.
func goroutineID(stack string) int64 {
	rest := strings.TrimPrefix(stack, "goroutine ")
	end := strings.IndexByte(rest, ' ')
	if end < 0 {
		return -1
	}
	id, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return -1
	}
	return id
}
