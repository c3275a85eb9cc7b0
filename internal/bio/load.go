package bio

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// LoadDatabase resolves the database argument the command-line tools
// share: "synthetic:<n>" generates the deterministic synthetic
// database (DefaultDBSpec with the given seed; related > 0 plants
// that many mutated copies of relatedTo), anything else is read as a
// FASTA file. Every tool must agree bit-for-bit on the database an
// argument denotes — shard replicas, and a snapshot standing in for an
// in-process build, depend on it — which is why this logic lives here
// exactly once.
func LoadDatabase(arg string, seed int64, related int, relatedTo *Sequence) (*Database, error) {
	if rest, ok := strings.CutPrefix(arg, "synthetic:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("bad synthetic database size %q", rest)
		}
		spec := DefaultDBSpec(n)
		spec.Seed = seed
		if related > 0 {
			spec.Related = related
			spec.RelatedTo = relatedTo
		}
		return SyntheticDB(spec), nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seqs, err := ReadFASTA(f)
	if err != nil {
		return nil, err
	}
	return NewDatabase(seqs), nil
}

// ShardDatabase slices db to the contiguous target range spec names,
// "lo:hi" with 0 <= lo < hi <= db.NumSeqs() (hi exclusive) — the
// -shard argument seqserve and indexbuild share. Both must cut the
// identical slice out of the identical global ordering (a router
// remaps shard-local hit indexes by adding lo), which is why this
// logic, too, lives here exactly once.
func ShardDatabase(db *Database, spec string) (*Database, error) {
	loStr, hiStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("-shard %q is not lo:hi", spec)
	}
	lo, err := strconv.Atoi(loStr)
	if err != nil {
		return nil, fmt.Errorf("-shard %q: bad lo: %v", spec, err)
	}
	hi, err := strconv.Atoi(hiStr)
	if err != nil {
		return nil, fmt.Errorf("-shard %q: bad hi: %v", spec, err)
	}
	if lo < 0 || hi <= lo || hi > db.NumSeqs() {
		return nil, fmt.Errorf("-shard %d:%d outside the database's [0, %d]", lo, hi, db.NumSeqs())
	}
	return NewDatabase(db.Seqs[lo:hi]), nil
}
