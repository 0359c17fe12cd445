package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	for _, name := range []string{"fcfs", "scan", "cscan", "sstf"} {
		s, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("elevator9000"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFCFS(t *testing.T) {
	s := FCFS{}
	if got := s.Next(400, []int32{700, 10, 401}); got != 0 {
		t.Errorf("FCFS picked %d, want 0", got)
	}
}

func TestSSTF(t *testing.T) {
	s := SSTF{}
	if got := s.Next(400, []int32{700, 390, 405}); got != 2 {
		t.Errorf("SSTF picked %d, want 2 (cyl 405)", got)
	}
	// Tie goes to arrival order.
	if got := s.Next(400, []int32{410, 390}); got != 0 {
		t.Errorf("SSTF tie picked %d, want 0", got)
	}
}

func TestSCANSweepsUpThenDown(t *testing.T) {
	s := NewSCAN()
	// Head at 400 moving up: nearest above is 450.
	if got := s.Next(400, []int32{500, 300, 450, 600}); got != 2 {
		t.Fatalf("picked %d, want 2 (cyl 450)", got)
	}
	// Still moving up from 450: nearest above is 500.
	if got := s.Next(450, []int32{500, 300, 600}); got != 0 {
		t.Fatalf("picked %d, want 0 (cyl 500)", got)
	}
	if got := s.Next(500, []int32{300, 600}); got != 1 {
		t.Fatalf("picked %d, want 1 (cyl 600)", got)
	}
	// Nothing above 600: reverse, nearest below is 300.
	if got := s.Next(600, []int32{300}); got != 0 {
		t.Fatalf("picked %d, want 0 (cyl 300)", got)
	}
}

func TestSCANServicesCurrentCylinderFirst(t *testing.T) {
	// Zero-distance requests are "ahead" in either direction: the
	// synergy the paper describes requires same-cylinder requests to be
	// drained before the head moves on.
	s := NewSCAN()
	if got := s.Next(400, []int32{500, 400, 390}); got != 1 {
		t.Errorf("picked %d, want 1 (cyl 400)", got)
	}
	s2 := &SCAN{up: false}
	if got := s2.Next(400, []int32{390, 400, 500}); got != 1 {
		t.Errorf("downward: picked %d, want 1 (cyl 400)", got)
	}
}

func TestSCANReversesWhenNothingAhead(t *testing.T) {
	s := NewSCAN() // moving up
	if got := s.Next(800, []int32{100, 200}); got != 1 {
		t.Errorf("picked %d, want 1 (cyl 200, nearest below)", got)
	}
	if s.up {
		t.Error("direction did not flip")
	}
}

func TestCSCAN(t *testing.T) {
	s := CSCAN{}
	if got := s.Next(400, []int32{300, 450, 800}); got != 1 {
		t.Errorf("picked %d, want 1 (cyl 450)", got)
	}
	// Nothing ahead: wrap to the lowest.
	if got := s.Next(900, []int32{300, 450, 100}); got != 2 {
		t.Errorf("picked %d, want 2 (cyl 100)", got)
	}
}

func TestPickAlwaysValidIndex(t *testing.T) {
	for _, name := range []string{"fcfs", "sstf", "scan", "cscan"} {
		s, _ := New(name)
		f := func(head uint16, raw []uint16) bool {
			if len(raw) == 0 {
				return true
			}
			pending := make([]int32, len(raw))
			for i, r := range raw {
				pending[i] = int32(r % 1658)
			}
			got := s.Next(int(head)%1658, pending)
			return got >= 0 && got < len(pending)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSCANDrainsAllRequests(t *testing.T) {
	// Property: repeatedly picking from a queue drains it without
	// skipping, and total head travel is at most 2x the cylinder span.
	s := NewSCAN()
	remaining := []int32{10, 900, 450, 455, 455, 20, 1500, 3}
	head := int32(450)
	travel := int32(0)
	for len(remaining) > 0 {
		i := s.Next(int(head), remaining)
		travel += abs(remaining[i] - head)
		head = remaining[i]
		remaining = slices.Delete(remaining, i, i+1)
	}
	if travel > 2*1500 {
		t.Errorf("SCAN travel = %d cylinders, want <= %d", travel, 2*1500)
	}
}

// The reference pickers are the policies as they were written over a
// []Cylindered, one Cylinder() call per entry, before Next replaced
// them. Next must pick exactly what they pick.

type req int

func (r req) Cylinder() int { return int(r) }

type refPicker interface {
	Pick(headCyl int, pending []Cylindered) int
}

type refFCFS struct{}

func (refFCFS) Pick(int, []Cylindered) int { return 0 }

type refSSTF struct{}

func (refSSTF) Pick(headCyl int, pending []Cylindered) int {
	best, bestDist := 0, absInt(pending[0].Cylinder()-headCyl)
	for i := 1; i < len(pending); i++ {
		if d := absInt(pending[i].Cylinder() - headCyl); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

type refSCAN struct{ up bool }

func (s *refSCAN) Pick(headCyl int, pending []Cylindered) int {
	if i := s.pickDir(headCyl, pending, s.up); i >= 0 {
		return i
	}
	s.up = !s.up
	if i := s.pickDir(headCyl, pending, s.up); i >= 0 {
		return i
	}
	return 0
}

func (s *refSCAN) pickDir(headCyl int, pending []Cylindered, up bool) int {
	best, bestDist := -1, 0
	for i, r := range pending {
		c := r.Cylinder()
		var d int
		if up {
			d = c - headCyl
		} else {
			d = headCyl - c
		}
		if d < 0 {
			continue
		}
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

type refCSCAN struct{}

func (refCSCAN) Pick(headCyl int, pending []Cylindered) int {
	best, bestCyl := -1, 0
	lowest, lowestCyl := 0, pending[0].Cylinder()
	for i, r := range pending {
		c := r.Cylinder()
		if c < lowestCyl {
			lowest, lowestCyl = i, c
		}
		if c >= headCyl && (best == -1 || c < bestCyl) {
			best, bestCyl = i, c
		}
	}
	if best >= 0 {
		return best
	}
	return lowest
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var policies = []struct {
	name string
	ref  func() refPicker
}{
	{"fcfs", func() refPicker { return refFCFS{} }},
	{"sstf", func() refPicker { return refSSTF{} }},
	{"scan", func() refPicker { return &refSCAN{up: true} }},
	{"cscan", func() refPicker { return refCSCAN{} }},
}

// runProgram decodes prog and runs it against Next, the reference
// picker and, for SCAN, the Pick adapter, failing on the first pick
// where they differ. prog[0] picks the policy and the cylinder span
// (8 cylinders, so duplicates abound, or a disk's 1658); prog[1] the
// starting head. Each later byte is an operation: an arrival, a pick,
// or a head move, the last two reading the next byte as a cylinder,
// with 0 and 255 meaning cylinder 0 and the top cylinder. The queue
// is drained at the end. Picks carry SCAN's direction along.
func runProgram(t *testing.T, prog []byte) {
	if len(prog) < 2 {
		return
	}
	pol := policies[int(prog[0])%len(policies)]
	top := 7
	if prog[0]&4 != 0 {
		top = 1657
	}
	at := func(b byte) int { return int(b) * top / 255 }
	s, _ := New(pol.name)
	ref := pol.ref()
	adapter := NewSCAN()
	head := at(prog[1])
	var queue []int32
	var pending []Cylindered
	pick := func() {
		got := s.Next(head, queue)
		want := ref.Pick(head, pending)
		if got != want {
			t.Fatalf("%s: head %d, queue %v: Next picked %d, reference %d (program %x)",
				pol.name, head, queue, got, want, prog)
		}
		if pol.name == "scan" {
			if p := adapter.Pick(head, pending); p != want {
				t.Fatalf("scan: head %d, queue %v: Pick picked %d, reference %d (program %x)",
					head, queue, p, want, prog)
			}
		}
		head = int(queue[got])
		queue = slices.Delete(queue, got, got+1)
		pending = slices.Delete(pending, got, got+1)
	}
	ops := prog[2:]
	for i := 0; i < len(ops); i++ {
		switch ops[i] % 4 {
		case 0, 1:
			if i+1 < len(ops) {
				i++
				queue = append(queue, int32(at(ops[i])))
				pending = append(pending, req(at(ops[i])))
			}
		case 2:
			if len(queue) > 0 {
				pick()
			}
		case 3:
			if i+1 < len(ops) {
				i++
				head = at(ops[i])
			}
		}
	}
	for len(queue) > 0 {
		pick()
	}
}

// FuzzNextMatchesReference checks that every policy's Next picks what
// the []Cylindered reference picks, over programs of arrivals, picks
// and head moves. Its seed corpus runs in every go test: hand-written
// edge programs (duplicates, cylinder 0, a head at 0 and at the top)
// and 400 seeded random ones.
func FuzzNextMatchesReference(f *testing.F) {
	for pol := byte(0); pol < 8; pol++ {
		// Duplicates behind and ahead of a head at the top, then at 0.
		f.Add([]byte{pol, 255, 0, 0, 0, 0, 0, 255, 0, 255, 0, 128, 0, 128, 2, 2, 3, 0, 2, 2, 2})
		f.Add([]byte{pol, 0, 0, 0, 0, 0, 0, 255, 0, 255, 0, 128, 0, 128, 2, 3, 255, 2, 2})
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 2+rnd.Intn(96))
		rnd.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runProgram)
}

func BenchmarkNext(b *testing.B) {
	for _, name := range []string{"fcfs", "sstf", "scan", "cscan"} {
		for _, depth := range []int{8, 64, 1024} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				s, _ := New(name)
				rnd := rand.New(rand.NewSource(1))
				queue := make([]int32, depth)
				for i := range queue {
					queue[i] = int32(rnd.Intn(1658))
				}
				head := 800
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Serve the pick and queue a new arrival in its place.
					p := s.Next(head, queue)
					head = int(queue[p])
					queue[p] = int32(rnd.Intn(1658))
				}
			})
		}
	}
}
