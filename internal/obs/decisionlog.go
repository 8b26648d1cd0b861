package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// DecisionLog is a bounded, human-readable record of controller decisions:
// every observe/skip/solve/discard/reject/install with the inputs that drove
// it (drift score, minimum-gain arithmetic, staleness check). Lines are
// stamped with the simulated clock. All methods are no-ops on a nil receiver.
type DecisionLog struct {
	mu      sync.Mutex
	lines   []string
	next    int
	wrapped bool
	total   uint64
}

// DefaultDecisionLogCap bounds the log when NewDecisionLog is given a
// non-positive capacity. Controller decisions are control-plane-rate (a few
// per drift check), so 4096 lines covers any realistic run.
const DefaultDecisionLogCap = 4096

// NewDecisionLog builds a log keeping the most recent capacity lines.
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity <= 0 {
		capacity = DefaultDecisionLogCap
	}
	return &DecisionLog{lines: make([]string, 0, capacity)}
}

// Logf appends one decision line stamped t (simulated seconds). The format
// string follows fmt rules; callers put the decision verb first so the log
// greps cleanly (e.g. "solve-launch drift=0.31 ...").
func (l *DecisionLog) Logf(t float64, format string, args ...any) {
	if l == nil {
		return
	}
	line := fmt.Sprintf("[t=%.6fs] ", t) + fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.total++
	if len(l.lines) < cap(l.lines) {
		l.lines = append(l.lines, line)
	} else {
		l.lines[l.next] = line
		l.wrapped = true
	}
	l.next++
	if l.next == cap(l.lines) {
		l.next = 0
	}
	l.mu.Unlock()
}

// Enabled reports whether lines are being recorded, mirroring the nil check.
func (l *DecisionLog) Enabled() bool { return l != nil }

// Len returns the number of lines currently held.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// Lines returns the held lines oldest-first. The slice is a copy.
func (l *DecisionLog) Lines() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.lines))
	if l.wrapped {
		out = append(out, l.lines[l.next:]...)
		out = append(out, l.lines[:l.next]...)
		return out
	}
	if l.next == 0 && len(l.lines) == cap(l.lines) && len(l.lines) > 0 {
		return append(out, l.lines...)
	}
	return append(out, l.lines[:l.next]...)
}

// String renders the log as newline-joined text, with a truncation header
// when old lines have been overwritten.
func (l *DecisionLog) String() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	total := l.total
	wrapped := l.wrapped
	l.mu.Unlock()
	var b strings.Builder
	if wrapped {
		fmt.Fprintf(&b, "# decision log truncated: showing most recent %d of %d lines\n", l.Len(), total)
	}
	for _, line := range l.Lines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteTo writes the rendered log to w.
func (l *DecisionLog) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, l.String())
	return int64(n), err
}

// WriteFile writes the rendered log to path atomically.
func (l *DecisionLog) WriteFile(path string) error {
	return WriteFileAtomic(path, []byte(l.String()))
}
