package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// samples keeps every measurement whole, so percentiles come from the
// sorted values, not from histogram buckets.
type samples []float64

// percentile returns the nearest-rank q-percentile of s and how many
// samples lie above it.
func (s samples) percentile(q float64) (v float64, above int) {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	r := int(math.Ceil(q * float64(len(c))))
	if r < 1 {
		r = 1
	}
	return c[r-1], len(c) - r
}

// minAbove is how many samples must lie above a reported p99.
const minAbove = 10

type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 for counters and ratios
}

// report is one workload run's metrics, in the order measured.
type report struct {
	workload          string
	metrics           []metric
	attempted, failed int
	mismatches        []string // correctness-gate failures, one line each
	notes             []string // attribution lines of a traced run
}

func (r *report) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, v, n})
}

// timing adds s's median under p50 and, when at least minAbove samples
// lie above it, its 99th percentile under p99. Empty s adds nothing.
func (r *report) timing(p50, p99, unit string, s samples) {
	if len(s) == 0 {
		return
	}
	v, _ := s.percentile(0.50)
	r.add(p50, unit, v, len(s))
	if v, above := s.percentile(0.99); above >= minAbove && p99 != "" {
		r.add(p99, unit, v, len(s))
	}
}

func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		n := ""
		if m.n > 0 {
			n = " n=" + strconv.Itoa(m.n)
		}
		fmt.Fprintf(w, "%-10s %-30s %14s %-6s%s\n", r.workload, m.name, fmtValue(m.value), m.unit, n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-10s %-30s %14s %-6s attempted=%d failed=%d\n", r.workload, "failed_ops_ratio", fmtValue(ratio), "1", r.attempted, r.failed)
	for _, line := range r.notes {
		fmt.Fprintf(w, "%-10s %s\n", r.workload, line)
	}
	for _, line := range r.mismatches {
		fmt.Fprintf(w, "%-10s GATE FAILED: %s\n", r.workload, line)
	}
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result renders the reports as the one-line JSON result, holding
// exactly the metrics named in names (prefixed by workload when there
// are several reports). A named metric missing from a report is an
// error: the result would not match BENCHMARK.json.
func result(reports []*report, names []string) ([]byte, error) {
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Correct && len(r.mismatches) == 0
		for _, name := range names {
			key := name
			if len(reports) > 1 {
				key = r.workload + "." + name
			}
			found := false
			for _, m := range r.metrics {
				if m.name == name {
					res.Metrics[key] = jsonMetric{m.value, m.unit}
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("workload %s produced no %s", r.workload, name)
			}
		}
	}
	return json.Marshal(res)
}
