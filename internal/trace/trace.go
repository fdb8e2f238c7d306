// Package trace records the decision history of a symbolic execution path:
// where the error was injected, which way each nondeterministic fork went,
// which constraints were learned, and how the path terminated. The paper
// (Section 5.4) highlights that showing "an execution trace of how the error
// evaded detection and led to the failure" is what makes findings actionable.
//
// Traces are persistent singly-linked lists so that forking a state shares
// the common prefix at zero cost.
//
// Only the traces of findings are ever read, and a finding is a tiny fraction
// of the states a search explores, so an event's text is not formatted when
// the event is recorded. A node holds the event's kind, step and PC plus a
// Message, and the text is rendered from the message when the trace is read
// (Events, Render). A message is rendered long after it is appended, possibly
// more than once and from any state sharing the node, so every value it holds
// must be immutable. Text that is cheap or already at hand is recorded as a
// Text, a message that is already rendered. A Renderer reads the traces of
// one search's findings, formatting the prefix they share once.
package trace

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a trace event.
type Kind int32

// Event kinds.
const (
	KindInject     Kind = iota + 1 // fault injection performed
	KindFork                       // nondeterministic choice taken
	KindConstraint                 // path constraint learned
	KindDetect                     // detector fired
	KindCheckPass                  // detector evaluated and passed
	KindException                  // exception raised
	KindHalt                       // program halted normally
	KindOutput                     // value appended to the output stream
	KindControl                    // control transferred through an erroneous target
	KindNote                       // free-form annotation
)

// MarshalText renders the kind by name so serialized traces stay readable
// and stable across reorderings of the Kind constants.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name; bare integers in the defined range are
// accepted for compatibility with records written before kinds were named on
// the wire. Out-of-range integers (a corrupt or hand-edited record) are
// rejected rather than decoded into a kind String() cannot name.
func (k *Kind) UnmarshalText(text []byte) error {
	s := string(text)
	for cand := KindInject; cand <= KindNote; cand++ {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < int(KindInject) || n > int(KindNote) {
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	*k = Kind(n)
	return nil
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindFork:
		return "fork"
	case KindConstraint:
		return "constraint"
	case KindDetect:
		return "detect"
	case KindCheckPass:
		return "check-pass"
	case KindException:
		return "exception"
	case KindHalt:
		return "halt"
	case KindOutput:
		return "output"
	case KindControl:
		return "control"
	case KindNote:
		return "note"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded decision.
type Event struct {
	Kind Kind
	Step int // dynamic instruction count when the event occurred
	PC   int // program counter at the event
	// Text is the human-readable description, rendered from the event's
	// Message when the trace is read.
	Text string
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("[step %d @%d] %s: %s", e.Step, e.PC, e.Kind, e.Text)
}

// Message produces an event's text. It is called only when the trace is
// read, and may be called more than once, so implementations must hold only
// immutable values.
type Message interface {
	String() string
}

// Text is a message that is already rendered.
type Text string

// String returns the text.
func (t Text) String() string { return string(t) }

// Node is an immutable trace cell. A nil *Node is the empty trace. depth and
// kind are 32-bit so that a node, allocated at every recorded event, fits
// the 48-byte size class.
type Node struct {
	parent *Node
	msg    Message
	step   int
	pc     int
	depth  int32
	kind   Kind
}

// Append extends the trace with an event of the given kind, recorded at the
// given step and PC, whose text msg renders when the trace is read. The
// receiver is unmodified, so sibling forks share their prefix.
func (n *Node) Append(kind Kind, step, pc int, msg Message) *Node {
	var d int32 = 1
	if n != nil {
		d = n.depth + 1
	}
	return &Node{parent: n, msg: msg, step: step, pc: pc, depth: d, kind: kind}
}

// Len returns the number of events.
func (n *Node) Len() int {
	if n == nil {
		return 0
	}
	return int(n.depth)
}

// Events renders the events, oldest first.
func (n *Node) Events() []Event {
	if n == nil {
		return nil
	}
	out := make([]Event, n.depth)
	for cur := n; cur != nil; cur = cur.parent {
		out[cur.depth-1] = cur.event()
	}
	return out
}

// event renders the node's own event.
func (n *Node) event() Event {
	return Event{Kind: n.kind, Step: n.step, PC: n.pc, Text: n.msg.String()}
}

// Renderer renders a sequence of traces, formatting only the events a trace
// does not share with the trace rendered before it. The findings of one
// search arrive in exploration order and share long prefixes, which are then
// formatted once rather than once per finding. The zero value is ready to
// use. A Renderer is not safe for concurrent use; give each search its own.
type Renderer struct {
	last   *Node   // the trace rendered last
	events []Event // what Events returned for it; never modified
}

// Events renders n's events oldest first, as Node.Events does. The returned
// slice must not be modified: the next call copies its shared prefix from it.
func (r *Renderer) Events(n *Node) []Event {
	if n == nil {
		return nil
	}
	out := make([]Event, n.depth)
	// Walk n and the last trace up to their deepest common node, rendering
	// n's events below it.
	a, b := n, r.last
	for a != b {
		if b == nil || (a != nil && a.depth >= b.depth) {
			out[a.depth-1] = a.event()
			a = a.parent
		} else {
			b = b.parent
		}
	}
	if a != nil {
		copy(out[:a.depth], r.events)
	}
	r.last, r.events = n, out
	return out
}

// Render formats the whole trace, one event per line, oldest first.
func (n *Node) Render() string {
	evs := n.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
