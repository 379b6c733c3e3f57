package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The benchmark generates every input itself from --seed with math/rand's
// stable source, so the same seed yields the same vectors, queries and op
// stream on every host. It deliberately imports neither internal/workload
// nor internal/bench: edits to those packages must not change its inputs.

// mixture is the vector distribution: clusters, each a centre plus a random
// low-rank basis plus isotropic noise. The low-rank part gives the data an
// intrinsic dimension far below 128, like SIFT, so a query's 100 nearest
// neighbours straddle many IVF cells and 0.9 recall@100 needs a probe
// fraction of a few percent rather than the one or two cells a
// well-separated mixture needs.
type mixture struct {
	dim, rank int
	centers   [][]float32
	bases     [][]float32 // per cluster: rank rows of dim values
	noise     float64
}

// mixtureShape fixes the distribution's hardness; tuned so that recall@100
// at the workloads' nprobe lands near 0.9.
type mixtureShape struct {
	clusters, rank     int
	sep, spread, noise float64
}

var defaultShape = mixtureShape{clusters: 24, rank: 12, sep: 1.0, spread: 9.0, noise: 0.35}

// mixtureSeed draws the mixture itself (centres and bases). It is fixed, so
// every --seed samples its vectors, queries and ops from one distribution:
// seeds then differ by sampling noise, not by how hard their data is.
const mixtureSeed = 1

// newDistribution returns the benchmark's vector distribution.
func newDistribution() *mixture {
	return newMixture(rand.New(rand.NewSource(mixtureSeed)), dim, defaultShape)
}

func newMixture(rng *rand.Rand, dim int, sh mixtureShape) *mixture {
	m := &mixture{dim: dim, rank: sh.rank, noise: sh.noise}
	scale := sh.spread / math.Sqrt(float64(dim))
	for c := 0; c < sh.clusters; c++ {
		ctr := make([]float32, dim)
		for i := range ctr {
			ctr[i] = float32(rng.NormFloat64() * sh.sep)
		}
		basis := make([]float32, sh.rank*dim)
		for i := range basis {
			basis[i] = float32(rng.NormFloat64() * scale)
		}
		m.centers = append(m.centers, ctr)
		m.bases = append(m.bases, basis)
	}
	return m
}

// draw fills dst with one point and returns the cluster it came from.
func (m *mixture) draw(rng *rand.Rand, dst []float32) int {
	c := rng.Intn(len(m.centers))
	copy(dst, m.centers[c])
	b := m.bases[c]
	for r := 0; r < m.rank; r++ {
		z := float32(rng.NormFloat64())
		row := b[r*m.dim : (r+1)*m.dim]
		for i := range dst {
			dst[i] += z * row[i]
		}
	}
	for i := range dst {
		dst[i] += float32(rng.NormFloat64() * m.noise)
	}
	return c
}

// dataset is a generated collection plus the query pool drawn from the same
// distribution (queries are never stored).
type dataset struct {
	dim      int
	ids      []string
	vecs     []float32 // row-major, len(ids)*dim
	cluster  []int
	queries  []float32 // row-major
	qcluster []int
}

func (d *dataset) vec(i int) []float32   { return d.vecs[i*d.dim : (i+1)*d.dim] }
func (d *dataset) query(i int) []float32 { return d.queries[i*d.dim : (i+1)*d.dim] }
func (d *dataset) numQueries() int       { return len(d.queries) / d.dim }

func itemID(i int) string { return fmt.Sprintf("v%07d", i) }

func genDataset(m *mixture, rng *rand.Rand, n, nq int) *dataset {
	d := &dataset{
		dim: m.dim, ids: make([]string, n), vecs: make([]float32, n*m.dim), cluster: make([]int, n),
		queries: make([]float32, nq*m.dim), qcluster: make([]int, nq),
	}
	for i := 0; i < n; i++ {
		d.ids[i] = itemID(i)
		d.cluster[i] = m.draw(rng, d.vec(i))
	}
	for i := 0; i < nq; i++ {
		d.qcluster[i] = m.draw(rng, d.query(i))
	}
	return d
}

// zipf draws ranks in [0, n) with P(i) proportional to 1/(i+1)^s from a
// precomputed CDF. Unlike math/rand.Zipf it accepts s <= 1, which keeps
// repeats a minority of a long stream.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

func (z *zipf) next(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// vocabulary builds the tag words for the filtered workload: each cluster
// owns topicWords words of its own, and every item's tag text is two words
// of its cluster's topic plus one word of a shared pool, so the lexical and
// vector legs of a hybrid query agree often but not always.
type vocabulary struct {
	topics [][]string
	shared []string
}

const topicWords = 6

func newVocabulary(clusters int) *vocabulary {
	v := &vocabulary{}
	for c := 0; c < clusters; c++ {
		var words []string
		for w := 0; w < topicWords; w++ {
			words = append(words, fmt.Sprintf("c%dw%d", c, w))
		}
		v.topics = append(v.topics, words)
	}
	for w := 0; w < 40; w++ {
		v.shared = append(v.shared, fmt.Sprintf("s%d", w))
	}
	return v
}

func (v *vocabulary) tags(rng *rand.Rand, cluster int) string {
	t := v.topics[cluster]
	a := rng.Intn(len(t))
	b := (a + 1 + rng.Intn(len(t)-1)) % len(t)
	return t[a] + " " + t[b] + " " + v.shared[rng.Intn(len(v.shared))]
}

// The churn workload's op mix, in percent. Inserts (new ids) match deletes,
// so the live set stays the same size however long a run lasts; moves
// upsert an existing id with a fresh vector.
const (
	pctSearch = 60
	pctInsert = 10
	pctMove   = 15
	pctDelete = 10
	pctGet    = 5
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opMove
	opDelete
	opGet
)

type op struct {
	kind  opKind
	id    string    // insert, move, delete, get
	vec   []float32 // insert, move
	query int       // search: index into the query pool
}

// opStream draws the churn workload's operations from one seeded source.
// Deletes, moves and gets pick a live id, so the caller applies every op to
// live before drawing the next; the stream then depends only on the seed.
// A search re-sends the previous search's query with probability requery
// percent, and otherwise draws from zipf.
type opStream struct {
	rng     *rand.Rand
	mix     *mixture
	zipf    *zipf
	requery int
	live    *liveSet
	nextID  int

	searched bool // a search was drawn; last is its query
	last     int
}

func (g *opStream) next() op {
	u := g.rng.Intn(100)
	switch {
	case u < pctSearch:
		if !g.searched || g.rng.Intn(100) >= g.requery {
			g.last = g.zipf.next(g.rng)
		}
		g.searched = true
		return op{kind: opSearch, query: g.last}
	case u < pctSearch+pctInsert:
		v := make([]float32, g.mix.dim)
		g.mix.draw(g.rng, v)
		g.nextID++
		return op{kind: opInsert, id: itemID(g.nextID - 1), vec: v}
	case u < pctSearch+pctInsert+pctMove:
		id := g.live.pick(g.rng)
		v := make([]float32, g.mix.dim)
		g.mix.draw(g.rng, v)
		return op{kind: opMove, id: id, vec: v}
	case u < pctSearch+pctInsert+pctMove+pctDelete:
		return op{kind: opDelete, id: g.live.pick(g.rng)}
	default:
		return op{kind: opGet, id: g.live.pick(g.rng)}
	}
}

// apply records op's effect on the live set.
func (s *liveSet) apply(o op) {
	switch o.kind {
	case opInsert, opMove:
		s.upsert(o.id, o.vec)
	case opDelete:
		s.remove(o.id)
	}
}
