package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file defines the one schema of the committed benchmark records in
// this directory, each regenerated in place by:
//
//	BENCH_vm.json        go test -bench StepLoop -run '^$' ./internal/vm/
//	BENCH_pipeline.json  go test -bench 'BenchmarkRecompile|BenchmarkAdditiveLoop' -run '^$' ./internal/bench/
//	BENCH_obs.json       go test -bench BenchmarkObs -run '^$' ./internal/bench/
//	BENCH_xisa.json      polybench -xisa -xisa-out internal/bench/BENCH_xisa.json
//
// A record stores measurements, never ratios: speedup and overhead are
// computed by whoever reads the rows (CI, formatXISA).

// Record is one BENCH_*.json document: where the numbers come from, then
// the rows in writer order.
type Record struct {
	Host       string `json:"host"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Rows       []Row  `json:"rows"`
}

// Row is one measured configuration. A timed row summarizes N wall-clock
// samples, one per run, in Unit. Det holds the deterministic counts, which
// every run of the same code reproduces exactly: insts, cycles, fences,
// code_size, funcs, cache_hits, cache_misses, recompiles. A row without a
// Unit is untimed and carries only Det.
type Row struct {
	Layer  string            `json:"layer"`
	Name   string            `json:"name"`
	Params map[string]string `json:"params,omitempty"`
	Unit   string            `json:"unit,omitempty"`
	N      int               `json:"n,omitempty"`
	Median float64           `json:"median,omitempty"`
	Min    float64           `json:"min,omitempty"`
	Max    float64           `json:"max,omitempty"`
	Det    map[string]int64  `json:"det,omitempty"`
}

// Timed returns r with its sample summary filled from per-run wall-clock
// samples (at least one), in seconds.
func (r Row) Timed(samples []time.Duration) Row {
	s := make([]float64, len(samples))
	for i, d := range samples {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	n := len(s)
	r.Unit, r.N = "s", n
	r.Min, r.Max = s[0], s[n-1]
	r.Median = (s[(n-1)/2] + s[n/2]) / 2
	return r
}

// key identifies the row's configuration and defines writer order: layer,
// then name, then parameters in key order.
func (r Row) key() string {
	ks := make([]string, 0, len(r.Params))
	for k := range r.Params {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var sb strings.Builder
	sb.WriteString(r.Layer + "\x00" + r.Name + "\x00")
	for _, k := range ks {
		sb.WriteString(k + "=" + r.Params[k] + ",")
	}
	return sb.String()
}

// sortRows puts rows into writer order.
func sortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].key() < rows[j].key() })
}

// WriteRecord stamps the header, sorts rows into writer order, and writes
// the record to path as indented JSON.
func WriteRecord(path string, rows []Row) error {
	host, _ := os.Hostname() // empty on error; the record still writes
	rec := Record{
		Host:       host,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Rows:       append([]Row(nil), rows...),
	}
	sortRows(rec.Rows)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit is the VCS revision stamped into the binary, or "unknown" (test
// binaries carry none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Recorder collects rows from benchmarks and writes them to one record on
// Flush. testing.B re-runs each benchmark with growing b.N, so the last row
// per configuration wins: the largest run.
type Recorder struct {
	path string
	mu   sync.Mutex
	rows map[string]Row
}

// NewRecorder returns a recorder that flushes to path.
func NewRecorder(path string) *Recorder {
	return &Recorder{path: path, rows: map[string]Row{}}
}

// Add records row, replacing an earlier row of the same configuration.
func (r *Recorder) Add(row Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows[row.key()] = row
}

// Flush writes the collected rows. With none (a plain `go test` run, which
// runs no benchmarks) it writes nothing.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rows) == 0 {
		return nil
	}
	rows := make([]Row, 0, len(r.rows))
	for _, row := range r.rows {
		rows = append(rows, row)
	}
	return WriteRecord(r.path, rows)
}
