package bio

import (
	"strings"
	"testing"
)

func TestShardDatabase(t *testing.T) {
	db := SyntheticDB(DefaultDBSpec(10))
	cases := []struct {
		spec    string
		wantErr string // substring; "" means the slice [lo, hi) is returned
		lo, hi  int
	}{
		{spec: "0:10", lo: 0, hi: 10},
		{spec: "3:7", lo: 3, hi: 7},
		{spec: "9:10", lo: 9, hi: 10},
		{spec: "5", wantErr: "not lo:hi"},
		{spec: "", wantErr: "not lo:hi"},
		{spec: "a:5", wantErr: "bad lo"},
		{spec: "2:b", wantErr: "bad hi"},
		{spec: "2:", wantErr: "bad hi"},
		{spec: "-1:5", wantErr: "outside"},
		{spec: "5:5", wantErr: "outside"},
		{spec: "7:3", wantErr: "outside"},
		{spec: "0:11", wantErr: "outside"},
	}
	for _, tc := range cases {
		got, err := ShardDatabase(db, tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ShardDatabase(%q): error %v, want one containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ShardDatabase(%q): %v", tc.spec, err)
			continue
		}
		want := NewDatabase(db.Seqs[tc.lo:tc.hi])
		if got.NumSeqs() != want.NumSeqs() || got.TotalResidues() != want.TotalResidues() ||
			got.Seqs[0] != db.Seqs[tc.lo] || got.Seqs[got.NumSeqs()-1] != db.Seqs[tc.hi-1] {
			t.Errorf("ShardDatabase(%q) is not db[%d:%d]", tc.spec, tc.lo, tc.hi)
		}
	}
}
