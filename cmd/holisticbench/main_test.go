package main

import (
	"strings"
	"testing"
)

func TestPickExperiment(t *testing.T) {
	exps := []experiment{{name: "table1"}, {name: "fig3"}, {name: "fig4"}}
	for _, tc := range []struct {
		exp     string
		want    string // selected names, comma-joined
		wantErr bool
	}{
		{exp: "all", want: "table1,fig3,fig4"},
		{exp: "fig3", want: "fig3"},
		{exp: "fig4", want: "fig4"},
		// The runners bench/ superseded must fail loudly, not print nothing.
		{exp: "shard", wantErr: true},
		{exp: "", wantErr: true},
		{exp: "FIG3", wantErr: true},
	} {
		got, err := pick(exps, tc.exp)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "table1|fig3|fig4|all") {
				t.Errorf("pick(%q) = %v, %v; want an error listing the valid names", tc.exp, got, err)
			}
			continue
		}
		names := make([]string, len(got))
		for i, e := range got {
			names[i] = e.name
		}
		if err != nil || strings.Join(names, ",") != tc.want {
			t.Errorf("pick(%q) = %v, %v; want %s", tc.exp, names, err, tc.want)
		}
	}
}
