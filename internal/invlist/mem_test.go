package invlist

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/collection"
	"repro/internal/tokenize"
)

// dupCollection builds a corpus of short strings over a three-letter
// alphabet: few distinct strings, so most lengths repeat many times, and
// 27 possible grams, so the lists run to thousands of postings.
func dupCollection(n int, seed int64) *collection.Collection {
	return randomBuilder(n, seed, 3, 4).Build()
}

// refSeek is the seek rule by linear scans: from pos, jump to the largest
// sampled position (a positive multiple of interval) whose length is below
// target if that moves forward — the landing point the skip list used to
// produce — and find the first posting with Len ≥ target. The postings a
// search of the landing block compares below that answer are walked, the
// rest of the way skipped: the search probes the landing point, then
// 1, 3, 7, … past it until a probe reaches the answer or the block end,
// then halves what is left of the last step.
func refSeek(list []Posting, pos, interval int, target float64) (newPos, skipped, walked int) {
	if pos >= len(list) || list[pos].Len >= target {
		return pos, 0, 0
	}
	land := pos
	for m := interval; m < len(list); m += interval {
		if list[m].Len < target && m > land {
			land = m
		}
	}
	end := len(list)
	for m := interval; m < len(list); m += interval {
		if m > land {
			end = m
			break
		}
	}
	ans := land
	for ans < len(list) && list[ans].Len < target {
		ans++
	}
	lo, hi := land, land
	for step := 1; hi < end && hi < ans; step *= 2 {
		walked++
		lo = hi + 1
		hi += step
	}
	for hi = min(hi, end); lo < hi; {
		if mid := (lo + hi) / 2; mid < ans {
			walked++
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ans, ans - pos - walked, walked
}

// TestSeekLenMatchesReference drives chains of non-decreasing seeks,
// interleaved with Next calls, over lists with heavy duplicate lengths
// and checks position and (skipped, walked) against refSeek after every
// step. One cursor per store is rebound from token to token.
func TestSeekLenMatchesReference(t *testing.T) {
	c := dupCollection(30000, 21)
	rng := rand.New(rand.NewSource(22))
	for _, interval := range []int{1, 2, 8, 64, 1024} {
		st := BuildMem(c, interval)
		var cur Cursor
		longest := 0
		for tok := 0; tok < c.NumTokens(); tok++ {
			tk := tokenize.Token(tok)
			list := drain(st.WeightCursor(tk))
			if len(list) == 0 {
				continue
			}
			longest = max(longest, len(list))
			first, last := list[0].Len, list[len(list)-1].Len

			// An id-sorted cursor never seeks.
			ic := st.IDCursor(tk)
			if sk, wk := ic.SeekLen(last + 1); sk != 0 || wk != 0 || !ic.Valid() || ic.Posting() != drain(st.IDCursor(tk))[0] {
				t.Fatalf("interval %d token %d: id cursor moved on SeekLen (%d, %d)", interval, tok, sk, wk)
			}

			cur = st.WeightCursorReuse(tk, cur)
			pos := 0
			mins := []float64{first - 1, first}
			for i := 0; i < 6; i++ {
				mins = append(mins, list[rng.Intn(len(list))].Len)
			}
			mins = append(mins, (first+last)/2, last, last+1)
			sort.Float64s(mins)
			for _, min := range mins {
				wantPos, wantSk, wantWk := refSeek(list, pos, interval, min)
				sk, wk := cur.SeekLen(min)
				_, _, gotPos, _ := RawPostings(cur)
				if gotPos != wantPos || sk != wantSk || wk != wantWk {
					t.Fatalf("interval %d token %d SeekLen(%g) from %d: pos %d (skipped %d, walked %d), want %d (%d, %d)",
						interval, tok, min, pos, gotPos, sk, wk, wantPos, wantSk, wantWk)
				}
				pos = gotPos
				for n := rng.Intn(3); n > 0 && cur.Valid(); n-- {
					cur.Next()
					pos++
				}
			}
		}
		if longest <= interval {
			t.Fatalf("interval %d: longest list has %d postings, no list is sampled", interval, longest)
		}
	}
}

// TestBuildMemAllocations pins the build to a constant number of
// allocations, whatever the number of tokens. One posting arena means one
// bucket fill, whose cursor table is the offset table itself: the store,
// its offset table, the (Len, ID) set order (whose second half is the
// radix sort's scratch), the arena's two columns and the skip offsets
// (these corpora's lists are too short to own a skip sample).
func TestBuildMemAllocations(t *testing.T) {
	var got [2]float64
	for i, tokens := range []int{1000, 20000} {
		b := collection.NewBuilder(tokenize.WordTokenizer{}, false)
		for s := 0; s < tokens; s++ {
			b.Add(fmt.Sprintf("w%d w%d w%d", s, (s+1)%tokens, (s*7+3)%tokens))
		}
		c := b.Build()
		if c.NumTokens() != tokens {
			t.Fatalf("corpus has %d tokens, want %d", c.NumTokens(), tokens)
		}
		got[i] = testing.AllocsPerRun(3, func() { BuildMem(c, 0) })
	}
	if got[0] != got[1] || got[0] > 6 {
		t.Errorf("BuildMem allocations: %.0f at 1k tokens, %.0f at 20k; want equal and at most 6", got[0], got[1])
	}
}

// TestWeightListsAreSortedIDLists checks the sort-free build: every
// weight list is the (Len, ID)-sort of the token's id list as the
// collection enumerates it (TokenSets) — also for a BuildWithStats
// collection, whose df holds global frequencies that differ from the
// local occurrence counts the lists are laid out by.
func TestWeightListsAreSortedIDLists(t *testing.T) {
	withStats := randomBuilder(800, 23, 5, 8).BuildWithStats(100000, func(tok string) int { return 10 + 37*len(tok) + int(tok[0]) })
	for name, c := range map[string]*collection.Collection{
		"Build":          dupCollection(1500, 24),
		"BuildWithStats": withStats,
	} {
		st := BuildMem(c, 4)
		postings := 0
		c.TokenSets(func(tk tokenize.Token, ids []collection.SetID) {
			tok := int(tk)
			want := make([]Posting, len(ids))
			for i, id := range ids {
				want[i] = Posting{ID: id, Len: c.Length(id)}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Len != want[j].Len {
					return want[i].Len < want[j].Len
				}
				return want[i].ID < want[j].ID
			})
			got := drain(st.WeightCursor(tk))
			if len(got) != len(want) {
				t.Fatalf("%s token %d: weight list has %d postings, id list %d", name, tok, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s token %d posting %d: %+v, want %+v", name, tok, i, got[i], want[i])
				}
			}
			postings += len(got)
		})
		if postings == 0 {
			t.Fatalf("%s: no postings", name)
		}
	}
}
