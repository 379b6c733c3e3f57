package main

import (
	"fmt"
	"io"
	"math/rand"

	"micronn"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/vec"
)

// unitCosts are the lower layers' costs, measured directly by probeLayers.
type unitCosts struct {
	hitUs, missUs float64 // storage.ReadTxn.Get on a pool hit / miss
	iterNs        float64 // btree: keys-only scan, per row (warm pool)
	decodeNs      float64 // reldb: full-row scan minus keys-only, per row
	getUs         float64 // reldb: point Get by primary key (warm pool)
	vecNs         float64 // vec.DistancesOneToMany, per row
	quantNs       float64 // quant.Query.DistancesMany on SQ8 codes, per row
}

// probeParts is how many partitions the probes sample; probeReps how often
// each warm measurement repeats.
const (
	probeParts = 32
	probeReps  = 5
	kernelRows = 256 // rows per kernel call, as the partition scan batches them
)

// probeLayers times the layers below ivf on sampled partitions of one store,
// each call inside its own span: ReadTxn.Get over the partitions' leaf pages
// twice (the first pass pays the pool's misses, the second only hits),
// keys-only and full-row scans of the same partitions, and the distance
// kernels over rows of the generated data. cb, when non-nil, is an SQ8
// codebook for the quantized kernel.
func probeLayers(tr *tracer, db *micronn.DB, rng *rand.Rand, q []float32, data []float32, cb *quant.Codebook) (unitCosts, error) {
	var u unitCosts
	st := db.InternalStore()
	rt, err := st.BeginRead()
	if err != nil {
		return u, err
	}
	defer rt.Close()
	ix := db.InternalIndex()
	parts, err := ix.PartitionIDs(rt)
	if err != nil {
		return u, err
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	parts = parts[:min(probeParts, len(parts))]
	vt, err := ix.DB().Table("vectors")
	if err != nil {
		return u, err
	}
	req := tr.request()

	// storage: cold pass then warm pass over the same leaf pages.
	var pages []uint32
	for _, p := range parts {
		if err := vt.LeafPages(rt, []reldb.Value{reldb.I(p)}, func(pg uint32) { pages = append(pages, pg) }); err != nil {
			return u, err
		}
	}
	fetch := func() error {
		for _, pg := range pages {
			if _, err := rt.Get(pg); err != nil {
				return err
			}
		}
		return nil
	}
	before := st.Stats().PoolMisses
	cold, err := tr.span("storage.fetch.cold", req, -1, fetch)
	if err != nil {
		return u, err
	}
	misses := float64(st.Stats().PoolMisses - before)
	warm, err := tr.span("storage.fetch.warm", req, -1, fetch)
	if err != nil {
		return u, err
	}
	n := float64(len(pages))
	u.hitUs = ratio(tr.spans[warm].ms()*1e3, n)
	if misses > 0 {
		u.missUs = (tr.spans[cold].ms()*1e3 - (n-misses)*u.hitUs) / misses
	}

	// btree and reldb: keys-only against full-row scans, alternated.
	var keysMs, fullMs, rows float64
	for r := 0; r < probeReps; r++ {
		for _, p := range parts {
			prefix := []reldb.Value{reldb.I(p)}
			var nk int
			id, err := tr.span("btree.iter", req, -1, func() error {
				return vt.ScanKeys(rt, prefix, func(reldb.Row) error { nk++; return nil })
			})
			if err != nil {
				return u, err
			}
			keysMs += tr.spans[id].ms()
			rows += float64(nk)
			id, err = tr.span("reldb.scan", req, -1, func() error {
				return vt.Scan(rt, prefix, func(reldb.Row) error { return nil })
			})
			if err != nil {
				return u, err
			}
			fullMs += tr.spans[id].ms()
		}
	}
	u.iterNs = ratio(keysMs*1e6, rows)
	u.decodeNs = ratio((fullMs-keysMs)*1e6, rows)

	// reldb point lookups: the vid-keyed Get that filter evaluation, the
	// pre-filter plan and rerank make once per row they touch.
	vids, err := ix.DB().Table("vids")
	if err != nil {
		return u, err
	}
	var keys []int64
	for _, p := range parts {
		if err := ix.ScanPartition(rt, p, func(vid int64, _ []byte) error {
			keys = append(keys, vid)
			return nil
		}); err != nil {
			return u, err
		}
	}
	id, err := tr.span("reldb.get", req, -1, func() error {
		for r := 0; r < probeReps; r++ {
			for _, k := range keys {
				if _, err := vids.Get(rt, reldb.I(k)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return u, err
	}
	u.getUs = ratio(tr.spans[id].ms()*1e3, float64(probeReps*len(keys)))

	// vec: the float32 kernel over generated rows, in scan-sized batches.
	nrows := min(len(data)/dim, 16*kernelRows)
	mat := &vec.Matrix{Data: data[:nrows*dim], Rows: nrows, Dim: dim}
	out := make([]float32, kernelRows)
	id, _ = tr.span("vec.kernel", req, -1, func() error {
		for r := 0; r < probeReps; r++ {
			for i := 0; i+kernelRows <= nrows; i += kernelRows {
				sub := &vec.Matrix{Data: mat.Data[i*dim : (i+kernelRows)*dim], Rows: kernelRows, Dim: dim}
				vec.DistancesOneToMany(vec.L2, q, sub, nil, out)
			}
		}
		return nil
	})
	u.vecNs = ratio(tr.spans[id].ms()*1e6, float64(probeReps*(nrows/kernelRows)*kernelRows))

	if cb != nil {
		// quant: the SQ8 asymmetric kernel over the partitions' stored codes.
		var codes []byte
		for _, p := range parts {
			if err := ix.ScanPartition(rt, p, func(_ int64, blob []byte) error {
				codes = append(codes, blob...)
				return nil
			}); err != nil {
				return u, err
			}
		}
		if len(codes)%dim != 0 {
			return u, fmt.Errorf("sq8 partition rows are %d bytes in total, not a multiple of %d", len(codes), dim)
		}
		ncodes := len(codes) / dim
		qq := cb.NewQuery(vec.L2, q)
		id, _ := tr.span("quant.kernel", req, -1, func() error {
			for r := 0; r < probeReps; r++ {
				for i := 0; i+kernelRows <= ncodes; i += kernelRows {
					qq.DistancesMany(codes[i*dim:(i+kernelRows)*dim], kernelRows, out)
				}
			}
			return nil
		})
		u.quantNs = ratio(tr.spans[id].ms()*1e6, float64(probeReps*(ncodes/kernelRows)*kernelRows))
	}
	return u, nil
}

// trainSQ8 trains a codebook on generated rows for the quantized kernel
// probe; the kernel's cost does not depend on the codebook's values.
func trainSQ8(data []float32) *quant.Codebook {
	t := quant.NewTrainerKind(quant.SQ8, dim, 0)
	for i := 0; i+dim <= len(data) && i < 4096*dim; i += dim {
		t.Add(data[i : i+dim])
	}
	return t.Codebook()
}

// scanCounts are one workload's per-query scan counts (PlanInfo and Stats
// deltas), which turn the unit costs into a per-query estimate.
type scanCounts struct {
	rows, vectors, misses float64 // partition-scan work per query
	// lookups is the point Gets per query that run one after another: a
	// partition scan's are shared by its workers, a pre-filter plan's are
	// not, so the caller divides the former by the workers.
	lookups   float64
	quantized bool
	workers   int // scan workers sharing a partition scan
}

// printBudget splits the ivf.Search span's self time into the lower layers
// by count × unit cost, and prints what no layer accounts for. The unit
// costs are single-threaded, and the scan spreads its partitions over the
// workers, so each layer's share of the wall time is its cost over workers.
func printBudget(w io.Writer, ivfSelfMs float64, c scanCounts, u unitCosts) {
	kernel, kname := c.vectors*u.vecNs/1e6, "vec.kernel"
	if c.quantized {
		kernel, kname = c.vectors*u.quantNs/1e6, "quant.kernel"
	}
	par := float64(max(c.workers, 1))
	kernel /= par
	rows := []struct {
		name string
		ms   float64
	}{
		{"storage.miss", c.misses * u.missUs / 1e3 / par},
		{"btree.iter", c.rows * u.iterNs / 1e6 / par},
		{"reldb.decode", c.rows * u.decodeNs / 1e6 / par},
		{"reldb.get", c.lookups * u.getUs / 1e3},
		{kname, kernel},
	}
	fmt.Fprintf(w, "ivf.Search self time split by count x unit cost (ms per query):\n")
	rest := ivfSelfMs
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10.4f  %5.1f%%\n", r.name+" (est)", r.ms, 100*ratio(r.ms, ivfSelfMs))
		rest -= r.ms
	}
	fmt.Fprintf(w, "  %-34s %10.4f  %5.1f%%\n", "unattributed", rest, 100*ratio(rest, ivfSelfMs))
}
