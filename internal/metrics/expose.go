package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"flashsim/internal/trace"
)

// Snapshot is a point-in-time copy of every instrument in a registry,
// keyed by the canonical series id (name{k="v",...}).
type Snapshot struct {
	Counters   map[string]uint64          `json:"counters,omitempty"`
	Gauges     map[string]int64           `json:"gauges,omitempty"`
	Histograms map[string]trace.Histogram `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			if s.Counters == nil {
				s.Counters = map[string]uint64{}
			}
			s.Counters[e.id] = e.c.Value()
		case kindGauge:
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[e.id] = e.g.Value()
		case kindHistogram:
			if s.Histograms == nil {
				s.Histograms = map[string]trace.Histogram{}
			}
			s.Histograms[e.id] = e.h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms render cumulatively with le bounds at
// the pow2 bucket upper edges.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	typed := map[string]bool{}
	for _, e := range r.sorted() {
		if !typed[e.name] {
			typed[e.name] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", e.id, e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", e.id, e.g.Value())
		case kindHistogram:
			writePromHistogram(&b, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHistogram renders one histogram series. Bucket i of the pow2
// shape counts values v with bits.Len64(v) == i, i.e. v <= 2^i - 1, so the
// le bound of bucket i is 2^i - 1.
func writePromHistogram(b *strings.Builder, e *entry) {
	h := e.h.Snapshot()
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if n == 0 && i != len(h.Buckets)-1 {
			continue
		}
		le := fmt.Sprintf("%d", uint64(1)<<i-1)
		if i == len(h.Buckets)-1 {
			le = "+Inf"
		}
		fmt.Fprintf(b, "%s %d\n", id(e.name+"_bucket", append(append([]string{}, e.labels...), "le", le)), cum)
	}
	fmt.Fprintf(b, "%s %d\n", id(e.name+"_sum", e.labels), h.Sum)
	fmt.Fprintf(b, "%s %d\n", id(e.name+"_count", e.labels), h.Count)
}
