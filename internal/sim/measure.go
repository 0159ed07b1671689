package sim

import (
	"math"

	"repro/internal/tokenize"
)

// Stats supplies the corpus statistics a measure needs. It is implemented
// by collection.Collection; sim depends only on this narrow interface.
type Stats interface {
	// NumSets is the number of sets in the database (N).
	NumSets() int
	// DF is the number of sets containing token t (N(t)); 0 if unseen.
	DF(t tokenize.Token) int
	// AvgTokens is the mean number of token occurrences per set
	// (with multiplicity); used by BM25 length normalization.
	AvgTokens() float64
}

// A Measure scores the similarity of two token-frequency vectors. Inputs
// must be sorted by ascending Token (as produced by tokenize.Counts).
// Higher is more similar. Normalized measures (IDF, TF/IDF) return values
// in [0, 1] with Score(x, x) == 1; BM25-family scores are unbounded.
type Measure interface {
	Name() string
	Score(q, s []tokenize.Count) float64
}

// IDFMeasure is the paper's measure (Eq. 1): TF/IDF with the tf component
// dropped (multisets reduced to sets) and cosine length normalization.
type IDFMeasure struct{ Stats Stats }

// Name implements Measure.
func (IDFMeasure) Name() string { return "IDF" }

// Score implements Measure.
func (m IDFMeasure) Score(q, s []tokenize.Count) float64 {
	n := m.Stats.NumSets()
	var sumQ, sumS SumSq
	var dot float64
	forEachAligned(q, s,
		func(c tokenize.Count) { w := IDF(m.Stats.DF(c.Token), n); sumQ.Add(w * w) },
		func(c tokenize.Count) { w := IDF(m.Stats.DF(c.Token), n); sumS.Add(w * w) },
		func(cq, cs tokenize.Count) {
			w := IDF(m.Stats.DF(cq.Token), n)
			sumQ.Add(w * w)
			sumS.Add(w * w)
			dot += w * w
		})
	lenQ, lenS := sumQ.Len(), sumS.Len()
	if lenQ <= 0 || lenS <= 0 {
		return 0
	}
	return dot / (lenQ * lenS)
}

// TFIDFMeasure is classic length-normalized TF/IDF cosine similarity over
// token multisets: weight(t, s) = tf(t, s)·idf(t).
type TFIDFMeasure struct{ Stats Stats }

// Name implements Measure.
func (TFIDFMeasure) Name() string { return "TFIDF" }

// Score implements Measure.
func (m TFIDFMeasure) Score(q, s []tokenize.Count) float64 {
	n := m.Stats.NumSets()
	var lenQ2, lenS2, dot float64
	forEachAligned(q, s,
		func(c tokenize.Count) {
			w := float64(c.TF) * IDF(m.Stats.DF(c.Token), n)
			lenQ2 += w * w
		},
		func(c tokenize.Count) {
			w := float64(c.TF) * IDF(m.Stats.DF(c.Token), n)
			lenS2 += w * w
		},
		func(cq, cs tokenize.Count) {
			idf := IDF(m.Stats.DF(cq.Token), n)
			wq := float64(cq.TF) * idf
			ws := float64(cs.TF) * idf
			lenQ2 += wq * wq
			lenS2 += ws * ws
			dot += wq * ws
		})
	if lenQ2 <= 0 || lenS2 <= 0 {
		return 0
	}
	return dot / sqrt(lenQ2*lenS2)
}

// BM25Measure is the Okapi BM25 ranking function, using the paper's idf
// definition for token weights so that all four measures share a weighting
// scheme. Scores are unbounded (rank-only, as used in Table I).
type BM25Measure struct {
	Stats  Stats
	Params BM25Params
}

// Name implements Measure.
func (BM25Measure) Name() string { return "BM25" }

// Score implements Measure.
func (m BM25Measure) Score(q, s []tokenize.Count) float64 {
	return m.score(q, s, false)
}

// BM25PrimeMeasure is BM25' — BM25 with term-frequency information
// discarded (all tf values treated as 1), the BM25 analogue of IDF.
type BM25PrimeMeasure struct {
	Stats  Stats
	Params BM25Params
}

// Name implements Measure.
func (BM25PrimeMeasure) Name() string { return "BM25'" }

// Score implements Measure.
func (m BM25PrimeMeasure) Score(q, s []tokenize.Count) float64 {
	return BM25Measure(m).score(q, s, true)
}

func (m BM25Measure) score(q, s []tokenize.Count, dropTF bool) float64 {
	p := m.Params
	// An unset Params struct: no parameter is positive.
	if p.K1 <= 0 && p.B <= 0 && p.K3 <= 0 {
		p = DefaultBM25
	}
	n := m.Stats.NumSets()
	avg := m.Stats.AvgTokens()
	if avg <= 0 {
		avg = 1
	}
	var setLen float64
	for _, c := range s {
		setLen += float64(c.TF)
	}
	if dropTF {
		setLen = float64(len(s))
	}
	var score float64
	forEachAligned(q, s, nil, nil, func(cq, cs tokenize.Count) {
		tfS, tfQ := float64(cs.TF), float64(cq.TF)
		if dropTF {
			tfS, tfQ = 1, 1
		}
		idf := IDF(m.Stats.DF(cq.Token), n)
		docPart := tfS * (p.K1 + 1) / (tfS + p.K1*(1-p.B+p.B*setLen/avg))
		queryPart := (p.K3 + 1) * tfQ / (p.K3 + tfQ)
		score += idf * docPart * queryPart
	})
	return score
}

// forEachAligned merges two Token-sorted count vectors, invoking onQ for
// tokens only in q, onS for tokens only in s, and onBoth for shared tokens.
// Nil callbacks are skipped.
func forEachAligned(q, s []tokenize.Count, onQ, onS func(tokenize.Count), onBoth func(cq, cs tokenize.Count)) {
	i, j := 0, 0
	for i < len(q) && j < len(s) {
		switch {
		case q[i].Token < s[j].Token:
			if onQ != nil {
				onQ(q[i])
			}
			i++
		case q[i].Token > s[j].Token:
			if onS != nil {
				onS(s[j])
			}
			j++
		default:
			if onBoth != nil {
				onBoth(q[i], s[j])
			}
			i++
			j++
		}
	}
	if onQ != nil {
		for ; i < len(q); i++ {
			onQ(q[i])
		}
	}
	if onS != nil {
		for ; j < len(s); j++ {
			onS(s[j])
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
