package main

// ingest_merge: connection 0 ingests batches (plus one update per batch
// on a row it owns) as fast as the server takes them while connection 1
// reads points, so the scheduler merges over and over beside both.  It
// is the same read path as point_rw, used beside heavy writes and
// running merges: lock phases, the scheduler, and any gain on one side
// paid for by the other show here.
var ingestMerge = servedDef{
	name:      "ingest_merge",
	shards:    2,
	conns:     2,
	rows:      func(s sizing) int { return s.ingestRows },
	countsOps: func(conn int) bool { return conn == 1 },
	stepper: func(env *servedEnv, w *worker) func() opResult {
		if w.o.conn == 0 {
			return (&ingestWriter{w: w}).step
		}
		return (&ingestReader{w: w}).step
	},
}

const (
	ingestBatch    = 500
	ingestSumEvery = 50
)

type ingestWriter struct {
	w        *worker
	updateIs bool
}

func (a *ingestWriter) step() opResult {
	w := a.w
	a.updateIs = !a.updateIs
	if !a.updateIs {
		return w.updateOwn()
	}
	res := w.insertBatch(kInsertBatch, ingestBatch)
	if !res.failed {
		w.env.acked.Store(int64(len(w.o.ins)))
	}
	return res
}

type ingestReader struct {
	w       *worker
	ops     int
	lastSum uint64
}

func (b *ingestReader) step() opResult {
	w, d := b.w, b.w.o.d
	b.ops++
	if b.ops%ingestSumEvery == 0 {
		// Updates leave qty alone and nothing is deleted, so the sum
		// only ever grows.
		res := opResult{kind: kSum, class: clsOther}
		sum, err := w.db.Sum(0, "qty")
		res.failed = err != nil || sum < d.sumQty || sum < b.lastSum
		b.lastSum = sum
		return res
	}
	acked := int(w.env.acked.Load())
	if acked == 0 || w.rng.Intn(2) == 0 {
		// An own preloaded key: nobody writes it, the row id is exact.
		return w.lookupOwn()
	}
	// A key the writer has had acknowledged: live, but its row id moves
	// with the writer's updates.
	res := opResult{kind: kLookup, class: clsRead}
	key := uint64(d.n + w.rng.Intn(acked)*w.o.conns)
	ids, err := w.db.Lookup(0, "order_id", key)
	res.failed = err != nil || len(ids) != 1
	return res
}
