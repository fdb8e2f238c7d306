package symexec

import (
	"sort"
	"testing"

	"symplfied/internal/apps/replace"
	"symplfied/internal/apps/tcas"
	"symplfied/internal/isa"
	"symplfied/internal/symbolic"
)

// forkingProgram reads an input, injects err into it, and branches on the
// erroneous value through loads and stores, so a full exploration visits
// states differing in registers, memory, constraints, output, and status.
const forkingProgram = `
	read $1
	st $1 10($0)
	ld $2 10($0)
	beqi $2 5 yes
	prints "no"
	halt
yes:	st $2 11($0)
	prints "yes"
	halt
`

// collectStates explores from s exhaustively, snapshotting every visited
// configuration (intermediate and terminal) via Clone.
func collectStates(t *testing.T, s *State) []*State {
	t.Helper()
	var all []*State
	frontier := []*State{s}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		all = append(all, cur.Clone())
		if len(all) > 10_000 {
			t.Fatal("exploration runaway")
		}
		if !cur.Running() {
			continue
		}
		if cur.StepInPlace() {
			frontier = append(frontier, cur)
		} else {
			frontier = append(frontier, cur.Successors()...)
		}
	}
	return all
}

// TestKeyHashMatchesKeyEquivalence checks the hashed visited-set key against
// the canonical string key over a real exploration: states with equal Key()
// strings must hash equal, and (absent a 64-bit collision, which would be a
// test failure worth knowing about) states with different Key() strings must
// hash differently.
func TestKeyHashMatchesKeyEquivalence(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 1) // read
	s.Inject(isa.RegLoc(1))
	states := collectStates(t, s)
	if len(states) < 8 {
		t.Fatalf("exploration too small to be meaningful: %d states", len(states))
	}

	byKey := map[string]uint64{}
	byHash := map[uint64]string{}
	for _, st := range states {
		key, hash := st.Key(), st.KeyHash()
		if prev, ok := byKey[key]; ok && prev != hash {
			t.Errorf("equal keys hashed differently: %q -> %#x and %#x", key, prev, hash)
		}
		byKey[key] = hash
		if prev, ok := byHash[hash]; ok && prev != key {
			t.Errorf("hash collision: %#x keys both %q and %q", hash, prev, key)
		}
		byHash[hash] = key
	}
	if len(byKey) < 2 {
		t.Fatalf("exploration produced only %d distinct keys", len(byKey))
	}
}

// TestKeyHashStable checks that hashing is a pure function of the state.
func TestKeyHashStable(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 2)
	if a, b := s.KeyHash(), s.KeyHash(); a != b {
		t.Errorf("KeyHash not stable: %#x then %#x", a, b)
	}
	c := s.Clone()
	if a, b := s.KeyHash(), c.KeyHash(); a != b {
		t.Errorf("clone hashes differently: parent %#x, clone %#x", a, b)
	}
}

// TestKeyerCollisionAudit runs the Keyer with the collision audit armed over
// a real exploration: the audit cross-checks every hash against the full
// canonical key and panics on a mismatch, so surviving the sweep is the
// assertion.
func TestKeyerCollisionAudit(t *testing.T) {
	old := CheckKeyCollisions
	CheckKeyCollisions = true
	defer func() { CheckKeyCollisions = old }()

	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 1)
	s.Inject(isa.RegLoc(1))
	keyer := NewKeyer()
	for _, st := range collectStates(t, s) {
		h := keyer.Hash(st)
		if h2 := keyer.Hash(st); h2 != h {
			t.Fatalf("audited hash unstable: %#x then %#x", h, h2)
		}
	}
}

// TestCloneMemCopyOnWrite checks the copy-on-write clone: writes on either
// side of a fork must not leak to the other, and an untouched clone must
// keep its key while the parent diverges.
func TestCloneMemCopyOnWrite(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 2) // read; st $1 10($0)
	if _, ok := s.Mem[10]; !ok {
		t.Fatal("store did not populate memory")
	}

	c := s.Clone()
	ckey, chash := c.Key(), c.KeyHash()

	// Parent runs ahead and writes memory again (the yes branch's st).
	stepN(t, s, 4) // ld; beqi (taken: $2 == 5); st $2 11($0); prints
	if _, ok := s.Mem[11]; !ok {
		t.Fatal("parent's second store did not land")
	}
	if _, ok := c.Mem[11]; ok {
		t.Error("parent's store leaked into the clone's memory")
	}
	if got := c.Key(); got != ckey {
		t.Errorf("clone key changed while only the parent stepped:\n  was %q\n  now %q", ckey, got)
	}
	if got := c.KeyHash(); got != chash {
		t.Errorf("clone hash changed while only the parent stepped: %#x -> %#x", chash, got)
	}

	// Clone writes: the parent must not see it.
	c.Inject(isa.MemLoc(10))
	if s.Mem[10].IsErr() {
		t.Error("clone's injection leaked into the parent's memory")
	}
	if c.Key() == ckey {
		t.Error("clone's own write did not change its key")
	}
}

// refHashConfig is the reference encoder for the state hashes: the
// configuration encoding of hashConfig with the memory component folded
// afresh over the whole Mem map on every call, as the encoder did before the
// digest was maintained on write. hashConfig must agree with it bit for bit,
// so visited sets, merge grouping and cycle detection decide exactly as the
// whole-map fold did.
func refHashConfig(s *State, withSteps, withSym bool) uint64 {
	h := symbolic.NewHash64()
	h.Int(int64(s.PC))
	if withSteps {
		h.Int(int64(s.Steps))
	}
	h.Int(int64(s.InPos))
	for r := range s.Regs {
		hashValue(&h, s.Regs[r])
	}
	var mem uint64
	for a, v := range s.Mem {
		mem += entryHash(a, v)
	}
	h.Word(uint64(len(s.Mem)))
	h.Word(mem)
	if withSym {
		s.Sym.KeyHash(&h)
	}
	for _, o := range s.Out {
		if o.IsStr {
			h.Str(o.Str)
		} else if o.Val.IsErr() {
			h.Str("err")
		} else {
			h.Decimal(o.Val.MustConcrete())
		}
	}
	h.Int(int64(s.Status))
	var stuck uint64
	for l := range s.Stuck {
		e := symbolic.NewHash64()
		e.Bool(l.IsMem)
		e.Int(l.Addr)
		e.Int(int64(l.Reg))
		stuck += e.Sum()
	}
	h.Word(uint64(len(s.Stuck)))
	h.Word(stuck)
	return h.Sum()
}

// assertReferenceHashes checks KeyHash, LoopHash and SkeletonHash against
// the whole-map reference encoder.
func assertReferenceHashes(t *testing.T, s *State) {
	t.Helper()
	for _, c := range []struct {
		name               string
		got                uint64
		withSteps, withSym bool
	}{
		{"KeyHash", s.KeyHash(), true, true},
		{"LoopHash", s.LoopHash(), false, true},
		{"SkeletonHash", s.SkeletonHash(), false, false},
	} {
		if want := refHashConfig(s, c.withSteps, c.withSym); c.got != want {
			t.Fatalf("%s = %#x at pc %d step %d, whole-map reference %#x", c.name, c.got, s.PC, s.Steps, want)
		}
	}
}

// walkHashed explores from s breadth-first for at most limit states,
// checking each state's hashes against the reference before it steps: the
// digest is armed on first sight and must then survive every later store,
// injection, concretization, clone and fork. It returns the states checked.
func walkHashed(t *testing.T, s *State, limit int) []*State {
	t.Helper()
	var seen []*State
	frontier := []*State{s}
	for len(frontier) > 0 && len(seen) < limit {
		cur := frontier[0]
		frontier = frontier[1:]
		assertReferenceHashes(t, cur)
		seen = append(seen, cur)
		if !cur.Running() {
			continue
		}
		if cur.StepInPlace() {
			frontier = append(frontier, cur)
		} else {
			frontier = append(frontier, cur.Successors()...)
		}
	}
	return seen
}

// firstMemAddr returns the lowest address the state's memory holds.
func firstMemAddr(t *testing.T, s *State) int64 {
	t.Helper()
	addrs := make([]int64, 0, len(s.Mem))
	for a := range s.Mem {
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		t.Fatal("state has no memory to inject into")
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs[0]
}

// TestMemDigestMatchesReferenceTcas hashes tcas states against the
// reference while the program stores its inputs, then after a transient
// memory injection, a register injection and a stuck-at word, through the
// forks the erroneous values cause.
func TestMemDigestMatchesReferenceTcas(t *testing.T) {
	prog := tcas.Program()
	opts := DefaultOptions()
	opts.Watchdog = 4000
	s := NewState(prog, nil, tcas.UpwardInput().Slice(), opts)

	// Fault-free prefix, hashed at every step: the digest is armed on the
	// first state, before the program has stored anything.
	for i := 0; i < 60 && s.Running(); i++ {
		assertReferenceHashes(t, s)
		if !s.StepInPlace() {
			t.Fatalf("fault-free tcas forked at step %d", i)
		}
	}
	assertReferenceHashes(t, s)
	addr := firstMemAddr(t, s)

	transient := s.Clone()
	transient.Inject(isa.MemLoc(addr))
	transient.Inject(isa.RegLoc(isa.RegRA))
	if n := len(walkHashed(t, transient, 3000)); n < 100 {
		t.Fatalf("transient walk checked only %d states", n)
	}

	stuck := s.Clone()
	stuck.InjectPermanent(isa.MemLoc(addr))
	stuck.InjectPermanent(isa.MemLoc(addr + 1))
	if n := len(walkHashed(t, stuck, 3000)); n < 100 {
		t.Fatalf("stuck-at walk checked only %d states", n)
	}
	assertReferenceHashes(t, s) // the forks left the shared prefix intact
}

// TestMemDigestMatchesReferenceReplace does the same over a replace prefix,
// whose read loop and pattern encoder store hundreds of cells: a stuck-at
// word in the input line (so the loop's write to it is discarded), and a
// transient err in the encoded pattern injected mid-run.
func TestMemDigestMatchesReferenceReplace(t *testing.T) {
	prog := replace.Program()
	in := replace.Input("[a-c]x*", "<&>", "axx b cx")
	opts := DefaultOptions()
	opts.Watchdog = 20000

	s := NewState(prog, nil, in, opts)
	assertReferenceHashes(t, s)
	stuck := s.Clone()
	stuck.InjectPermanent(isa.MemLoc(replace.LineBase + 1))
	if n := len(walkHashed(t, stuck, 4000)); n < 1000 {
		t.Fatalf("stuck-at walk checked only %d states", n)
	}

	for i := 0; i < 1500 && s.Running(); i++ {
		if i%7 == 0 {
			assertReferenceHashes(t, s)
		}
		if !s.StepInPlace() {
			t.Fatalf("fault-free replace forked at step %d", i)
		}
	}
	if _, ok := s.Mem[replace.PatBase]; !ok {
		t.Fatal("prefix too short: the pattern is not encoded yet")
	}
	s.Inject(isa.MemLoc(replace.PatBase))
	if n := len(walkHashed(t, s, 4000)); n < 1000 {
		t.Fatalf("transient walk checked only %d states", n)
	}
}

// TestMemDigestConcretize follows the forking program until a comparison
// pins an erroneous memory cell: concretize rewrites it as a concrete word,
// and the digest, armed while the cell still held err, must follow.
func TestMemDigestConcretize(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 1)
	s.Inject(isa.RegLoc(1))
	concretized := false
	for _, st := range walkHashed(t, s, 1000) {
		if v, ok := st.Mem[10]; ok && !v.IsErr() && v.MustConcrete() == 5 {
			concretized = true
		}
	}
	if !concretized {
		t.Fatal("no explored state concretized the erroneous cell 10 to 5")
	}
}

// TestMemDigestAcrossWrites hashes one state, then overwrites a cell, writes
// the same value again, and restores the original, checking the reference
// after each write: restoring the original memory must restore the original
// hashes. A new err cell and a new concrete cell follow.
func TestMemDigestAcrossWrites(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 2) // read; st $1 10($0)
	key, loop, skel := s.KeyHash(), s.LoopHash(), s.SkeletonHash()
	orig := s.Mem[10]

	for _, v := range []isa.Value{isa.Int(7), isa.Int(7), orig} {
		s.setMem(10, v, symbolic.Term{}, false)
		assertReferenceHashes(t, s)
	}
	if s.KeyHash() != key || s.LoopHash() != loop || s.SkeletonHash() != skel {
		t.Error("restoring the original memory did not restore the original hashes")
	}
	s.setMem(12, isa.Err(), symbolic.Term{}, false)
	assertReferenceHashes(t, s)
	s.setMem(11, isa.Int(3), symbolic.Term{}, false)
	assertReferenceHashes(t, s)
}

// TestMemDigestCloneSiblings forks two clones off a hashed parent and has
// each write a different cell after the fork: copy-on-write must give each
// side its own digest, and the parent's must stay put.
func TestMemDigestCloneSiblings(t *testing.T) {
	s := stateFor(t, forkingProgram, []int64{5})
	stepN(t, s, 2) // read; st $1 10($0)
	parentKey := s.KeyHash()

	a, b := s.Clone(), s.Clone()
	a.Inject(isa.MemLoc(10))
	b.setMem(20, isa.Int(9), symbolic.Term{}, false)
	for name, st := range map[string]*State{"parent": s, "sibling a": a, "sibling b": b} {
		t.Run(name, func(t *testing.T) { assertReferenceHashes(t, st) })
	}
	if s.KeyHash() != parentKey {
		t.Error("a clone's write changed the parent's hash")
	}
	if a.KeyHash() == b.KeyHash() || a.KeyHash() == parentKey || b.KeyHash() == parentKey {
		t.Error("siblings that wrote different cells hash alike")
	}

	// An unhashed parent: the clones inherit no digest and build their own.
	u := stateFor(t, forkingProgram, []int64{5})
	stepN(t, u, 2)
	c, d := u.Clone(), u.Clone()
	c.setMem(10, isa.Int(1), symbolic.Term{}, false)
	d.setMem(11, isa.Int(1), symbolic.Term{}, false)
	assertReferenceHashes(t, c)
	assertReferenceHashes(t, d)
	assertReferenceHashes(t, u)
}
