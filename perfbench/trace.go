package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"allnn/internal/obs"
	"allnn/internal/server"
)

// Trace lanes. A serial client records on laneClient (or laneSingle for
// routed-knn's single-node pass) and the annserve it talks to directly
// on the lane after it; routed-knn's shard i records on laneServer+i.
const (
	laneSetup  int64 = 1
	laneClient int64 = 10
	laneSingle int64 = 20 // routed-knn's single-node baseline pass
	laneServer int64 = 100
)

// serverSpan records an access-log entry as a span on lane; arg links
// it to the client request that caused it.
func serverSpan(t *obs.Tracer, lane int64, e server.SlowQuery, arg int64) {
	lo, hi := interval(e)
	t.Complete("serve."+e.Op, lane, time.Unix(0, lo), time.Unix(0, hi), "req", arg)
}

// writeTrace writes the recorded spans as Chrome trace-event JSON, the
// format the engine's own traces use.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi] the union of the child intervals
// covers. A span's self time is its duration minus this.
func covered(lo, hi int64, children [][2]int64) int64 {
	cs := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c[0], lo), min(c[1], hi)
		if a < b {
			cs = append(cs, [2]int64{a, b})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, c := range cs {
		if open && c[0] <= curHi {
			curHi = max(curHi, c[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = c[0], c[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// tracingOverhead compares the traced run's end-to-end numbers with the
// last untraced run of the same workload in this output directory and
// adds one per-layer row per shared metric: traced/untraced - 1.
func (r *run) tracingOverhead() {
	data, err := os.ReadFile(filepath.Join(r.outDir, "untraced-"+r.workload+".json"))
	if err != nil {
		r.layer("trace.overhead", "note", 0, "no untraced run of this workload recorded yet; run --trace 0 first")
		return
	}
	var base []metric
	if err := json.Unmarshal(data, &base); err != nil {
		r.layer("trace.overhead", "note", 0, fmt.Sprintf("unreadable untraced record: %v", err))
		return
	}
	prev := map[string]float64{}
	for _, m := range base {
		prev[m.Name] = m.Value
	}
	for _, m := range r.endToEnd {
		if v, ok := prev[m.Name]; ok && v != 0 {
			r.layer("trace.overhead."+m.Name, "frac", m.Value/v-1,
				fmt.Sprintf("traced %.6g vs untraced %.6g %s", m.Value, v, m.Unit))
		}
	}
}
