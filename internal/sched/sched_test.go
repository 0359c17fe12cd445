package sched

import (
	"testing"
	"testing/quick"
)

type req int

func (r req) Cylinder() int { return int(r) }

func cyls(cs ...int) []Cylindered {
	out := make([]Cylindered, len(cs))
	for i, c := range cs {
		out[i] = req(c)
	}
	return out
}

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
	if got := s.Pick(400, cyls(700, 10, 401)); got != 0 {
		t.Errorf("FCFS picked %d, want 0", got)
	}
}

func TestSSTF(t *testing.T) {
	s := SSTF{}
	if got := s.Pick(400, cyls(700, 390, 405)); got != 2 {
		t.Errorf("SSTF picked %d, want 2 (cyl 405)", got)
	}
	// Tie goes to arrival order.
	if got := s.Pick(400, cyls(410, 390)); got != 0 {
		t.Errorf("SSTF tie picked %d, want 0", got)
	}
}

func TestSCANSweepsUpThenDown(t *testing.T) {
	s := NewSCAN()
	pending := cyls(500, 300, 450, 600)
	// Head at 400 moving up: nearest above is 450.
	if got := s.Pick(400, pending); got != 2 {
		t.Fatalf("picked %d, want 2 (cyl 450)", got)
	}
	// Still moving up from 450: nearest above is 500.
	if got := s.Pick(450, cyls(500, 300, 600)); got != 0 {
		t.Fatalf("picked %d, want 0 (cyl 500)", got)
	}
	if got := s.Pick(500, cyls(300, 600)); got != 1 {
		t.Fatalf("picked %d, want 1 (cyl 600)", got)
	}
	// Nothing above 600: reverse, nearest below is 300.
	if got := s.Pick(600, cyls(300)); got != 0 {
		t.Fatalf("picked %d, want 0 (cyl 300)", got)
	}
}

func TestSCANServicesCurrentCylinderFirst(t *testing.T) {
	// Zero-distance requests are "ahead" in either direction: the
	// synergy the paper describes requires same-cylinder requests to be
	// drained before the head moves on.
	s := NewSCAN()
	if got := s.Pick(400, cyls(500, 400, 390)); got != 1 {
		t.Errorf("picked %d, want 1 (cyl 400)", got)
	}
	s2 := &SCAN{up: false}
	if got := s2.Pick(400, cyls(390, 400, 500)); got != 1 {
		t.Errorf("downward: picked %d, want 1 (cyl 400)", got)
	}
}

func TestSCANReversesWhenNothingAhead(t *testing.T) {
	s := NewSCAN() // moving up
	if got := s.Pick(800, cyls(100, 200)); got != 1 {
		t.Errorf("picked %d, want 1 (cyl 200, nearest below)", got)
	}
	if s.up {
		t.Error("direction did not flip")
	}
}

func TestCSCAN(t *testing.T) {
	s := CSCAN{}
	if got := s.Pick(400, cyls(300, 450, 800)); got != 1 {
		t.Errorf("picked %d, want 1 (cyl 450)", got)
	}
	// Nothing ahead: wrap to the lowest.
	if got := s.Pick(900, cyls(300, 450, 100)); got != 2 {
		t.Errorf("picked %d, want 2 (cyl 100)", got)
	}
}

func TestPickAlwaysValidIndex(t *testing.T) {
	policies := []func() Scheduler{
		func() Scheduler { return FCFS{} },
		func() Scheduler { return SSTF{} },
		func() Scheduler { return NewSCAN() },
		func() Scheduler { return CSCAN{} },
	}
	for _, mk := range policies {
		s := mk()
		f := func(head uint16, raw []uint16) bool {
			if len(raw) == 0 {
				return true
			}
			pending := make([]Cylindered, len(raw))
			for i, r := range raw {
				pending[i] = req(int(r) % 1658)
			}
			got := s.Pick(int(head)%1658, pending)
			return got >= 0 && got < len(pending)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestSCANDrainsAllRequests(t *testing.T) {
	// Property: repeatedly picking from a queue drains it without
	// skipping, and total head travel is at most 2x the cylinder span.
	s := NewSCAN()
	pending := cyls(10, 900, 450, 455, 455, 20, 1500, 3)
	head := 450
	travel := 0
	remaining := append([]Cylindered(nil), pending...)
	for len(remaining) > 0 {
		i := s.Pick(head, remaining)
		c := remaining[i].Cylinder()
		d := c - head
		if d < 0 {
			d = -d
		}
		travel += d
		head = c
		remaining = append(remaining[:i], remaining[i+1:]...)
	}
	if travel > 2*1500 {
		t.Errorf("SCAN travel = %d cylinders, want <= %d", travel, 2*1500)
	}
}
