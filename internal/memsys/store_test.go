package memsys

import "testing"

func TestStoreReset(t *testing.T) {
	s := NewStore(storeChunkWords)
	*s.Word(3) = 42
	s.Reset()
	if got := s.Load(3); got != 0 {
		t.Fatalf("after Reset word3=%d, want 0", got)
	}
	*s.Word(3) = 7
	if got := s.Load(3); got != 7 {
		t.Fatalf("post-reset write lost: word3=%d", got)
	}
}

func TestViewPendingAndReset(t *testing.T) {
	s := NewStore(storeChunkWords)
	v := NewView(s)
	v.Store(1, 10)
	v.Store(2, 20)
	if v.Pending() != 2 {
		t.Fatalf("Pending=%d, want 2", v.Pending())
	}
	v.Flush()
	if v.Pending() != 0 {
		t.Fatalf("Pending after flush=%d, want 0", v.Pending())
	}
	v.SetWriteThrough(true)
	v.Reset()
	v.Store(3, 30)
	if s.Load(3) != 0 {
		t.Fatalf("Reset did not clear write-through mode")
	}
	if v.Pending() != 1 {
		t.Fatalf("Pending=%d, want 1", v.Pending())
	}
}
