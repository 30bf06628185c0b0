package basefile

import (
	"bytes"
	"time"
)

// DeltaSizeFunc measures the size, in bytes, of the delta that transforms
// base into doc, for the OnlineOptimal and Offline baselines. They only
// compare these values, so a cheap estimate works well; nil selects the
// light Vdelta variant the Selector itself uses.
type DeltaSizeFunc func(base, doc []byte) int

// FirstResponse is the simplest base-file scheme: the document corresponding
// to the request that created the class stays the base-file forever. Table
// III compares the randomized algorithm against it.
type FirstResponse struct {
	base    []byte
	version int
}

var _ Strategy = (*FirstResponse)(nil)

// NewFirstResponse returns an empty FirstResponse strategy.
func NewFirstResponse() *FirstResponse { return &FirstResponse{} }

// Observe implements Strategy.
func (f *FirstResponse) Observe(doc []byte, _ time.Time) Event {
	if f.version != 0 {
		return Event{}
	}
	f.base = cloneBytes(doc)
	f.version = 1
	return Event{Initialized: true}
}

// Base implements Strategy.
func (f *FirstResponse) Base() ([]byte, int) { return f.base, f.version }

// OnlineOptimal is the exhaustive online algorithm: it stores every document
// seen so far and uses as the base-file the one that minimizes the average
// delta against all of them. The paper deems it impracticable (memory and
// computation grow with the request stream) but uses it as the quality
// yardstick in Table III.
type OnlineOptimal struct {
	deltaSize DeltaSizeFunc
	docs      [][]byte
	utility   []int // utility[i] = sum_j deltaSize(docs[i], docs[j])
	base      []byte
	version   int
}

var _ Strategy = (*OnlineOptimal)(nil)

// NewOnlineOptimal returns an OnlineOptimal strategy measuring candidate
// quality with deltaSize (nil selects the light Vdelta estimator).
func NewOnlineOptimal(deltaSize DeltaSizeFunc) *OnlineOptimal {
	if deltaSize == nil {
		deltaSize = lightDelta.Estimate
	}
	return &OnlineOptimal{deltaSize: deltaSize}
}

// Observe implements Strategy.
func (o *OnlineOptimal) Observe(doc []byte, _ time.Time) Event {
	var ev Event
	doc = cloneBytes(doc)
	for i := range o.docs {
		o.utility[i] += o.deltaSize(o.docs[i], doc)
	}
	u := 0
	for i := range o.docs {
		u += o.deltaSize(doc, o.docs[i])
	}
	o.docs = append(o.docs, doc)
	o.utility = append(o.utility, u)

	best, bestU := 0, o.utility[0]
	for i, v := range o.utility {
		if v < bestU {
			best, bestU = i, v
		}
	}
	if o.version == 0 {
		ev.Initialized = true
	}
	if !bytes.Equal(o.docs[best], o.base) {
		o.base = o.docs[best]
		o.version++
		if o.version > 1 {
			ev.GroupRebase = true
		}
	}
	return ev
}

// Base implements Strategy.
func (o *OnlineOptimal) Base() ([]byte, int) { return o.base, o.version }

// StoredBytes reports how much document storage the exhaustive algorithm has
// accumulated — the cost that motivates the randomized scheme.
func (o *OnlineOptimal) StoredBytes() int {
	total := 0
	for _, d := range o.docs {
		total += len(d)
	}
	return total
}

// Offline returns the index of the document in docs that an offline
// algorithm with full future knowledge would choose: the one minimizing the
// sum of deltas between itself and every other document. It returns -1 for
// an empty slice.
func Offline(docs [][]byte, deltaSize DeltaSizeFunc) int {
	if deltaSize == nil {
		deltaSize = lightDelta.Estimate
	}
	best, bestU := -1, 0
	for i := range docs {
		u := 0
		for j := range docs {
			if i == j {
				continue
			}
			u += deltaSize(docs[i], docs[j])
		}
		if best == -1 || u < bestU {
			best, bestU = i, u
		}
	}
	return best
}
