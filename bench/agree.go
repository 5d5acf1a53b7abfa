package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// runAgree runs the untraced pass of each workload twice with the same
// seed and prints, per end-to-end metric, both values, how far the second
// is worse than the first, and the bound. Two runs of one commit must
// agree within the benchmark's own bounds; every virtual-time number and
// the failed share of the simulated workloads must be equal.
func runAgree(w io.Writer, names []string, seed int64, seconds float64) (bool, error) {
	printProvenance(w, newProvenance(seed, seconds))
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	ok := true
	for _, name := range names {
		var runs [2]*result
		for i := range runs {
			r, err := runWorkload(name, params{seed: seed, seconds: seconds, setups: setupRepeat})
			if err != nil {
				return false, err
			}
			runs[i] = r
			ok = ok && r.correct()
		}
		a, b := runs[0], runs[1]
		for _, m := range endToEnd {
			worse := (b.Values[m.Name] - a.Values[m.Name]) / a.Values[m.Name]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", name, m.Name, a.Values[m.Name], b.Values[m.Name], 100*worse, 100*m.Bound, verdict)
		}
		var virtual []string
		for k := range a.Values {
			if strings.Contains(k, "_v_") {
				virtual = append(virtual, k)
			}
		}
		sort.Strings(virtual)
		for _, k := range virtual {
			verdict := ""
			if a.Values[k] != b.Values[k] {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %9s %7s%s\n", name, k, a.Values[k], b.Values[k], "", "exact", verdict)
		}
		if strings.HasPrefix(name, "sim_") && a.Failed*b.Attempted != b.Failed*a.Attempted {
			fmt.Fprintf(w, "%-16s failed share %d/%d, then %d/%d  DISAGREE\n", name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			ok = false
		}
	}
	return ok, nil
}
