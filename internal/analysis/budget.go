package analysis

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Directive budgets. Three directive classes widen the analyzers' trust
// boundary — //stash:ignore escapes for the concurrency analyzers,
// //stash:parallel goroutine sanctions, and the //stash:fold +
// //stash:shared mediation vocabulary — and each has a committed baseline
// count in the budget file. Growth beyond a baseline is a reviewed change
// (raise the number in the same commit), not something that accretes
// silently. These used to be three shell-arithmetic gates in the
// Makefile; enforcement moved here so `make lint` is one stashvet
// invocation and the gate is testable.
//
// The budget file holds one `<class> <count>` pair per line; blank lines
// and lines starting with # are ignored:
//
//	# reviewed directive baselines
//	ignore 1
//	parallel 1
//	share 9

// budgetClass is one budgeted directive family. The line regexps match
// the old Makefile greps exactly: a directive counts only when nothing
// but non-comment, non-string text precedes it on the line (the `[^/"]*`
// prefix rejects directives quoted inside test fixtures or doc comments).
type budgetClass struct {
	name     string
	re       *regexp.Regexp
	tests    bool // whether *_test.go files are in scope
	describe string
}

var budgetClasses = []budgetClass{
	{
		name:     "ignore",
		re:       regexp.MustCompile(`^[^/"]*//stash:ignore (lockcheck|ctxcheck|chanleak|sharecheck)`),
		tests:    true,
		describe: "//stash:ignore escapes for concurrency analyzers",
	},
	{
		name:     "parallel",
		re:       regexp.MustCompile(`^[^/"]*//stash:parallel `),
		tests:    false,
		describe: "//stash:parallel sanctions",
	},
	{
		name:     "share",
		re:       regexp.MustCompile(`^[^/"]*//stash:(fold|shared) `),
		tests:    false,
		describe: "//stash:fold + //stash:shared sanctions",
	},
}

// budgetDirs are the source trees in scope, relative to the module root.
// Test fixtures under any testdata directory never count.
var budgetDirs = []string{"internal", "cmd"}

// parseBudgetFile reads the committed baselines. Every known class must
// be present and no unknown class may appear, so a typo cannot silently
// skip a gate.
func parseBudgetFile(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	known := map[string]bool{}
	for _, c := range budgetClasses {
		known[c.name] = true
	}
	budgets := map[string]int{}
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, num, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: want \"<class> <count>\", got %q", path, lineno, line)
		}
		if !known[name] {
			return nil, fmt.Errorf("%s:%d: unknown budget class %q (want ignore, parallel or share)", path, lineno, name)
		}
		if _, dup := budgets[name]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate budget class %q", path, lineno, name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(num))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%s:%d: bad count %q for class %q", path, lineno, num, name)
		}
		budgets[name] = n
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, c := range budgetClasses {
		if _, ok := budgets[c.name]; !ok {
			return nil, fmt.Errorf("%s: missing budget for class %q", path, c.name)
		}
	}
	return budgets, nil
}

// countDirectives walks the in-scope trees under root and returns, per
// class, the matching lines as "path:line: text" in walk order.
func countDirectives(root string) (map[string][]string, error) {
	hits := map[string][]string{}
	for _, dir := range budgetDirs {
		top := filepath.Join(root, dir)
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			isTest := strings.HasSuffix(path, "_test.go")
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				rel = path
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, c := range budgetClasses {
					if isTest && !c.tests {
						continue
					}
					if c.re.MatchString(line) {
						hits[c.name] = append(hits[c.name],
							fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), i+1, strings.TrimSpace(line)))
					}
				}
			}
			return nil
		})
		if err != nil {
			if os.IsNotExist(err) {
				continue // a module without that tree has nothing to count
			}
			return nil, err
		}
	}
	return hits, nil
}

// enforceBudgets counts the budgeted directives under root and compares
// them to the baselines in budgetPath. It reports whether any class is
// over budget, printing the offending lines; errors are file/parse
// problems, not budget breaches.
func enforceBudgets(out io.Writer, root, budgetPath string) (over bool, err error) {
	budgets, err := parseBudgetFile(budgetPath)
	if err != nil {
		return false, err
	}
	hits, err := countDirectives(root)
	if err != nil {
		return false, err
	}
	for _, c := range budgetClasses {
		lines := hits[c.name]
		if len(lines) <= budgets[c.name] {
			continue
		}
		over = true
		fmt.Fprintf(out, "budget %s: %d %s exceed the budget of %d; fix the findings or review a raise in %s\n",
			c.name, len(lines), c.describe, budgets[c.name], budgetPath)
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintf(out, "  %s\n", l)
		}
	}
	return over, nil
}
