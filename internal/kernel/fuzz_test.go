package kernel

import "testing"

// FuzzKernelIntersect drives packed build + intersect against the
// scalar map-based reference with fuzzer-chosen id sets. The raw bytes
// decode into two ascending id lists via per-byte deltas, with a few
// wide jumps so the fuzzer can flip sets between the dense and sparse
// layouts and exercise the galloping path.
func FuzzKernelIntersect(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 4})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{255, 255, 1, 255}, []byte{1, 1, 1, 1, 255})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		decode := func(raw []byte) []uint64 {
			var ids []uint64
			id := uint64(0)
			for _, d := range raw {
				if d == 255 {
					// Wide jump: push the next ids far away, changing
					// the block span (layout selection) mid-set.
					id += 1 << 20
					continue
				}
				id += uint64(d) + 1 // strictly ascending, distinct
				ids = append(ids, id)
			}
			return ids
		}
		a, b := decode(rawA), decode(rawB)
		sa, sb := buildSet(a), buildSet(b)
		if sa.Len() != len(a) || sb.Len() != len(b) {
			t.Fatalf("Len mismatch: %d/%d vs %d/%d", sa.Len(), len(a), sb.Len(), len(b))
		}
		want := refIntersect(a, b)
		got := Intersect(nil, &sa, &sb)
		if !sameIDs(got, want) {
			t.Fatalf("Intersect(a,b) = %v, want %v", got, want)
		}
		if rev := Intersect(nil, &sb, &sa); !sameIDs(rev, want) {
			t.Fatalf("Intersect(b,a) = %v, want %v", rev, want)
		}
		// Membership must agree with the input exactly: every decoded
		// id is a member, every id adjacent to one is checked against
		// the reference.
		member := make(map[uint64]bool, len(a))
		for _, id := range a {
			member[id] = true
		}
		for _, id := range a {
			if !sa.Contains(id) {
				t.Fatalf("Contains(%d) = false for member", id)
			}
			for _, p := range []uint64{id - 1, id + 1, id + 64, id - 64} {
				if sa.Contains(p) != member[p] {
					t.Fatalf("Contains(%d) = %v, want %v", p, sa.Contains(p), member[p])
				}
			}
		}
	})
}
