package benchkit

import (
	"encoding/json"
	"runtime"
)

// Snapshot is the machine-readable benchmark document every harness
// writes — horus-bench -json (the committed BENCH_<n>.json files) and
// horus-load -json (the knee sweep) — so the same tooling can diff
// either. Each gate keeps its own comparison policy over this one
// schema. Environment fields are recorded because ns/op is only
// comparable within a hardware class.
type Snapshot struct {
	Suite      string   `json:"suite"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Record `json:"benchmarks"`
}

// Record is one benchmark's measurements in a Snapshot.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// NewSnapshot returns an empty snapshot for suite, stamped with the
// running host's environment.
func NewSnapshot(suite string) Snapshot {
	return Snapshot{
		Suite:     suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Encode renders the snapshot as indented JSON with a trailing newline.
func (s Snapshot) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeSnapshot parses a snapshot rendered by Encode.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}
