package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestEmptyTrace(t *testing.T) {
	var n *Node
	if n.Len() != 0 {
		t.Errorf("empty Len = %d", n.Len())
	}
	if n.Events() != nil {
		t.Errorf("empty Events = %v", n.Events())
	}
	if n.Render() != "" {
		t.Errorf("empty Render = %q", n.Render())
	}
}

func TestAppendAndOrder(t *testing.T) {
	var n *Node
	n = n.Append(KindInject, 1, 0, Text("a"))
	n = n.Append(KindFork, 2, 0, Text("b"))
	n = n.Append(KindHalt, 3, 0, Text("c"))
	if n.Len() != 3 {
		t.Fatalf("Len = %d", n.Len())
	}
	evs := n.Events()
	if evs[0].Text != "a" || evs[1].Text != "b" || evs[2].Text != "c" {
		t.Fatalf("order wrong: %v", evs)
	}
}

func TestForkSharing(t *testing.T) {
	var base *Node
	base = base.Append(KindInject, 0, 0, Text("shared"))
	left := base.Append(KindFork, 0, 0, Text("left"))
	right := base.Append(KindFork, 0, 0, Text("right"))

	if base.Len() != 1 {
		t.Error("base mutated by fork appends")
	}
	le, re := left.Events(), right.Events()
	if le[0].Text != "shared" || re[0].Text != "shared" {
		t.Error("shared prefix lost")
	}
	if le[1].Text != "left" || re[1].Text != "right" {
		t.Error("branch events wrong")
	}
}

// countingMsg counts its renderings.
type countingMsg struct {
	text  string
	calls *int
}

func (m countingMsg) String() string {
	*m.calls++
	return m.text
}

// TestMessagesRenderLazily: Append never renders a message, each Events call
// renders each message once, and sibling forks share the prefix node, which
// a Renderer formats once for both.
func TestMessagesRenderLazily(t *testing.T) {
	var shared, left, right int
	var base *Node
	base = base.Append(KindInject, 1, 0, countingMsg{"shared", &shared})
	l := base.Append(KindFork, 2, 1, countingMsg{"left", &left})
	r := base.Append(KindFork, 2, 1, countingMsg{"right", &right})
	if shared+left+right != 0 {
		t.Fatalf("Append rendered messages: shared %d, left %d, right %d", shared, left, right)
	}
	if l.parent != base || r.parent != base {
		t.Fatal("sibling forks do not share their prefix node")
	}
	evs := l.Events()
	if shared != 1 || left != 1 || right != 0 {
		t.Fatalf("one Events call rendered shared %d, left %d, right %d times", shared, left, right)
	}
	if evs[0].Text != "shared" || evs[1].Text != "left" {
		t.Fatalf("events %v", evs)
	}
	r.Events()
	r.Render()
	if shared != 3 || left != 1 || right != 2 {
		t.Fatalf("after three reads: shared %d, left %d, right %d renderings, want 3, 1, 2", shared, left, right)
	}

	// A Renderer formats the prefix a trace shares with the one rendered
	// before it once, and renders the same events as Events.
	shared, left, right = 0, 0, 0
	var rd Renderer
	le, re := rd.Events(l), rd.Events(r)
	if shared != 1 || left != 1 || right != 1 {
		t.Fatalf("renderer: shared %d, left %d, right %d renderings, want 1 each", shared, left, right)
	}
	if fmt.Sprint(le) != fmt.Sprint(l.Events()) || fmt.Sprint(re) != fmt.Sprint(r.Events()) {
		t.Errorf("renderer events %v, %v differ from Events", le, re)
	}
}

func TestRender(t *testing.T) {
	var n *Node
	n = n.Append(KindConstraint, 4, 7, Text("x > 1"))
	out := n.Render()
	for _, want := range []string{"step 4", "@7", "constraint", "x > 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render %q lacks %q", out, want)
		}
	}
}

// TestKindTextCompat: records written before kinds were named on the wire
// carried bare integers, which must still decode — but only inside the
// defined range. A corrupt or hand-edited record must be rejected, not
// decoded into a kind String() cannot name.
func TestKindTextCompat(t *testing.T) {
	var k Kind
	if err := k.UnmarshalText([]byte("2")); err != nil || k != KindFork {
		t.Errorf("legacy in-range integer: got %v, %v", k, err)
	}
	if err := k.UnmarshalText([]byte("halt")); err != nil || k != KindHalt {
		t.Errorf("named kind: got %v, %v", k, err)
	}
	for _, bad := range []string{"0", "-1", "99", "gibberish"} {
		if err := k.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("invalid kind %q accepted", bad)
		}
	}
}

func TestKindNames(t *testing.T) {
	kinds := []Kind{
		KindInject, KindFork, KindConstraint, KindDetect, KindCheckPass,
		KindException, KindHalt, KindOutput, KindControl, KindNote,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d lacks a name", int(k))
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

// TestRendererMatchesEvents: over a random trace tree rendered in a random
// order, deeper and shallower traces interleaved, a Renderer returns exactly
// the events Node.Events returns.
func TestRendererMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes := []*Node{nil}
	for i := 0; i < 300; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		nodes = append(nodes, parent.Append(KindFork, i, rng.Intn(50), Text(fmt.Sprint("event ", i))))
	}
	var rd Renderer
	for i := 0; i < 2000; i++ {
		n := nodes[rng.Intn(len(nodes))]
		if got, want := fmt.Sprint(rd.Events(n)), fmt.Sprint(n.Events()); got != want {
			t.Fatalf("render %d: renderer gives %s, want %s", i, got, want)
		}
	}
}
