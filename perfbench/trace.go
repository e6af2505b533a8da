package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer. Spans of one operation share a
// request id; parent links a span to the span open around it.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: spans nest strictly, innermost ended first.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
	open  []int // indexes of open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new operation: later spans share its id.
func (t *tracer) request() { t.req++ }

// do records a span named name around f.
func (t *tracer) do(name string, f func()) time.Duration {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: i + 1, Parent: parent, Req: t.req, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, i)
	f()
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
	return t.spans[i].dur()
}

// spanStat summarises every span of one name.
type spanStat struct {
	Count      int
	MedianSelf time.Duration // span time not covered by its children
	MedianAll  time.Duration
	Sum        time.Duration
}

// spanStats computes per-name statistics; a span's self time is its
// duration minus its direct children's (children never overlap).
func spanStats(spans []span) map[string]spanStat {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string][]time.Duration{}
	all := map[string][]time.Duration{}
	out := map[string]spanStat{}
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], s.dur()-child[s.ID])
		all[s.Name] = append(all[s.Name], s.dur())
		st := out[s.Name]
		st.Count++
		st.Sum += s.dur()
		out[s.Name] = st
	}
	for name, st := range out {
		st.MedianSelf = medianDur(self[name])
		st.MedianAll = medianDur(all[name])
		out[name] = st
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// chain is an end-to-end operation and the layer calls it decomposes
// into; its residual is the root's median minus the parts' medians —
// the time no measured layer accounts for. A part may be counted more
// than once per operation (Times), e.g. several WAL appends per commit.
type chain struct {
	Name  string  `json:"name"`
	Root  string  `json:"root"`
	Parts []part  `json:"parts"`
	Unit  string  `json:"unit"`
	Scale float64 `json:"scale"` // nanoseconds per unit
}

type part struct {
	Span  string  `json:"span"`
	Times float64 `json:"times"`
}

// residual computes a chain's unattributed time in the chain's unit.
func (c chain) residual(st map[string]spanStat) (float64, bool) {
	root, ok := st[c.Root]
	if !ok {
		return 0, false
	}
	r := float64(root.MedianAll)
	for _, p := range c.Parts {
		r -= p.Times * float64(st[p.Span].MedianAll)
	}
	return r / c.Scale, true
}

// spanDump is the file a traced run writes when it ends.
type spanDump struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Chains   []chain `json:"chains"`
	Spans    []span  `json:"spans"`
}

func writeSpans(out *outcome, dir string, cfg config) error {
	dump, ok := out.detail["spans"].(*spanDump)
	if !ok {
		return fmt.Errorf("traced run produced no span dump")
	}
	delete(out.detail, "spans")
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(dump); err != nil {
		f.Close()
		return err
	}
	out.detail["span_dump"] = path
	out.detail["span_count"] = len(dump.Spans)
	return f.Close()
}

// printReport is the span-dump reader: each layer's call count and
// median self time, then every chain's unattributed residual.
func printReport(w io.Writer, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var dump spanDump
	if err := json.Unmarshal(b, &dump); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	st := spanStats(dump.Spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s, seed %d, %d spans\n\n", dump.Workload, dump.Seed, len(dump.Spans))
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcalls\tmedian self\tmedian total\tsum\t")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t\n", n, s.Count, s.MedianSelf, s.MedianAll, s.Sum.Round(time.Microsecond))
	}
	tw.Flush()
	fmt.Fprintln(w, "\nunattributed residual (root median minus the sum of its parts' medians):")
	for _, c := range dump.Chains {
		r, ok := c.residual(st)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-12s %10.3f %s  (%s", c.Name, r, c.Unit, c.Root)
		for _, p := range c.Parts {
			if p.Times == 1 {
				fmt.Fprintf(w, " - %s", p.Span)
			} else {
				fmt.Fprintf(w, " - %.2f×%s", p.Times, p.Span)
			}
		}
		fmt.Fprintln(w, ")")
	}
	return nil
}
