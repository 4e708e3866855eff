package mem

import (
	"testing"
	"testing/quick"
)

func TestArrayAddressing(t *testing.T) {
	s := NewSpace()
	a := s.AllocBytes("srcData", 100, 4, true)
	if a.Addr(0) != a.Base {
		t.Errorf("Addr(0) = %#x, want base %#x", a.Addr(0), a.Base)
	}
	if got := a.Addr(1) - a.Addr(0); got != 4 {
		t.Errorf("element stride = %d, want 4", got)
	}
	if a.ElemsPerLine() != 16 {
		t.Errorf("ElemsPerLine = %d, want 16 (64B/4B)", a.ElemsPerLine())
	}
	if a.SizeBytes() != 400 {
		t.Errorf("SizeBytes = %d, want 400", a.SizeBytes())
	}
	if a.NumLines() != 7 {
		t.Errorf("NumLines = %d, want ceil(400/64)=7", a.NumLines())
	}
}

func TestBitVectorAddressing(t *testing.T) {
	s := NewSpace()
	f := s.Alloc("frontier", 1000, 1, true)
	if f.ElemsPerLine() != 512 {
		t.Errorf("bit-vector ElemsPerLine = %d, want 512", f.ElemsPerLine())
	}
	if f.SizeBytes() != 125 {
		t.Errorf("SizeBytes = %d, want 125", f.SizeBytes())
	}
	// Bits 0..7 share a byte; bit 8 starts the next byte.
	if f.Addr(7) != f.Addr(0) {
		t.Error("bits 0 and 7 should share an address")
	}
	if f.Addr(8) != f.Addr(0)+1 {
		t.Error("bit 8 should live in the next byte")
	}
}

func TestArraysDoNotShareLines(t *testing.T) {
	s := NewSpace()
	a := s.AllocBytes("a", 3, 4, false) // 12 bytes, partial line
	b := s.AllocBytes("b", 3, 4, false)
	if a.Bound() > b.Base {
		t.Fatal("arrays overlap")
	}
	if (a.Bound()-1)>>LineShift == b.Base>>LineShift {
		t.Error("arrays share a cache line")
	}
}

func TestContains(t *testing.T) {
	s := NewSpace()
	a := s.AllocBytes("x", 64, 4, true) // 256 bytes = 4 lines
	if !a.Contains(a.Addr(63)) || a.Contains(a.Bound()) || a.Contains(a.Base-1) {
		t.Error("Contains boundary conditions wrong")
	}
}

func TestFind(t *testing.T) {
	s := NewSpace()
	a := s.AllocBytes("a", 10, 4, false)
	b := s.AllocBytes("b", 10, 8, true)
	if s.Find(a.Addr(5)) != a || s.Find(b.Addr(5)) != b {
		t.Error("Find returned wrong array")
	}
	if s.Find(42) != nil {
		t.Error("Find of unmapped address should be nil")
	}
}

func TestAccessLineAddr(t *testing.T) {
	a := Access{Addr: 0x12345}
	if a.LineAddr() != 0x12340 {
		t.Errorf("LineAddr = %#x, want 0x12340", a.LineAddr())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range index")
		}
	}()
	s := NewSpace()
	a := s.AllocBytes("a", 10, 4, false)
	_ = a.Addr(10)
}

// Property: every element address lies within [Base, Bound) and in the
// line its index implies.
func TestAddressingProperty(t *testing.T) {
	s := NewSpace()
	arr := s.AllocBytes("p", 4096, 4, true)
	f := func(iRaw uint16) bool {
		i := int(iRaw) % arr.Len
		addr := arr.Addr(i)
		if !arr.Contains(addr) {
			return false
		}
		return (addr-arr.Base)>>LineShift == uint64(i*4/LineSize)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
