package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// spans records host-clock spans around the benchmark's calls into each
// layer: name, start, end, parent and call count. A nil *spans (untraced
// runs) records nothing.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	id, parent int
	name       string
	start, end time.Duration
	calls      int
	closed     bool
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return 0
	}
	id := len(s.list) + 1
	s.list = append(s.list, span{id: id, parent: parent, name: name, start: time.Since(s.t0)})
	return id
}

// stop closes span id, which covered calls calls into its layer.
func (s *spans) stop(id, calls int) {
	if s == nil {
		return
	}
	sp := &s.list[id-1]
	sp.end = time.Since(s.t0)
	sp.calls = calls
	sp.closed = true
}

// check verifies that every span was closed and that every parent id
// resolves to a span that encloses it.
func (s *spans) check() error {
	for _, sp := range s.list {
		if !sp.closed {
			return fmt.Errorf("span %d %q was never closed", sp.id, sp.name)
		}
		if sp.parent == 0 {
			continue
		}
		if sp.parent < 1 || sp.parent > len(s.list) {
			return fmt.Errorf("span %d %q has unresolved parent %d", sp.id, sp.name, sp.parent)
		}
		p := s.list[sp.parent-1]
		if sp.start < p.start || sp.end > p.end {
			return fmt.Errorf("span %d %q lies outside its parent %q", sp.id, sp.name, p.name)
		}
	}
	return nil
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// chromeJSON renders the spans as Chrome trace_event JSON (complete "X"
// events in microseconds, loadable in ui.perfetto.dev), with the run's
// provenance under otherData.
func (s *spans) chromeJSON(prov provenance) ([]byte, error) {
	events := make([]chromeEvent, 0, len(s.list))
	for _, sp := range s.list {
		events = append(events, chromeEvent{
			Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": sp.id, "parent": sp.parent, "calls": sp.calls},
		})
	}
	return json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"clock": "host", "provenance": prov},
	}, "", " ")
}
