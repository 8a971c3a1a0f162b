package vector

import "testing"

func TestResizeAccessors(t *testing.T) {
	v := New(TypeInt64, 4)
	v.AppendInt64(1)
	v.AppendNull()
	xs := v.ResizeInt64(3)
	if len(xs) != 3 || v.Len() != 3 {
		t.Fatalf("ResizeInt64 len = %d/%d", len(xs), v.Len())
	}
	if v.HasNulls() {
		t.Error("Resize must clear nulls")
	}
	xs[0], xs[1], xs[2] = 7, 8, 9
	if v.Int64s()[2] != 9 {
		t.Error("resize backing not shared")
	}
	// Growing past capacity reallocates; shrinking reuses.
	big := v.ResizeInt64(4096)
	if len(big) != 4096 {
		t.Fatal("grow failed")
	}
	f := New(TypeFloat64, 0)
	if len(f.ResizeFloat64(5)) != 5 {
		t.Error("ResizeFloat64")
	}
	s := New(TypeString, 0)
	if len(s.ResizeString(5)) != 5 {
		t.Error("ResizeString")
	}
	b := New(TypeBool, 0)
	if len(b.ResizeBool(5)) != 5 {
		t.Error("ResizeBool")
	}
}

func TestEnsureNullWords(t *testing.T) {
	v := New(TypeInt64, 0)
	v.ResizeInt64(100)
	w := v.EnsureNullWords(100)
	if len(w) != 2 {
		t.Fatalf("words = %d, want 2", len(w))
	}
	w[1] = 1 // row 64 null
	if !v.IsNull(64) || v.IsNull(63) {
		t.Error("bitmap not shared with vector")
	}
	// Shrink-then-grow must re-zero the re-exposed words, not resurrect bits.
	v.ResizeInt64(100)
	w = v.EnsureNullWords(100)
	if w[0] != 0 || w[1] != 0 {
		t.Error("EnsureNullWords exposed stale bits after reset")
	}
}

func TestAppendRange(t *testing.T) {
	src := New(TypeFloat64, 0)
	for i := 0; i < 70; i++ {
		if i == 5 || i == 68 {
			src.AppendNull()
		} else {
			src.AppendFloat64(float64(i))
		}
	}
	dst := New(TypeFloat64, 0)
	dst.AppendFloat64(-1)
	dst.AppendRange(src, 2, 70)
	if dst.Len() != 69 {
		t.Fatalf("len = %d, want 69", dst.Len())
	}
	if dst.Float64s()[0] != -1 || dst.Float64s()[1] != 2 {
		t.Error("values wrong")
	}
	// src row 5 lands at dst row 4; src row 68 at dst row 67.
	if !dst.IsNull(4) || !dst.IsNull(67) || dst.IsNull(5) {
		t.Error("null bits not transferred")
	}
	// Null rows carry zero backing per the engine invariant.
	if dst.Float64s()[4] != 0 || dst.Float64s()[67] != 0 {
		t.Error("null rows must hold zero backing")
	}

	// A source with no nulls must not materialize a bitmap in dst.
	s2 := New(TypeString, 0)
	s2.AppendString("x")
	s2.AppendString("y")
	d2 := New(TypeString, 0)
	d2.AppendRange(s2, 0, 2)
	if d2.HasNulls() || d2.Strings()[1] != "y" {
		t.Error("no-null AppendRange wrong")
	}
	// Empty range is a no-op.
	d2.AppendRange(s2, 1, 1)
	if d2.Len() != 2 {
		t.Error("empty range changed length")
	}
}
