package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseNodeList pins the membership syntax of serve -ring-nodes and
// loadgen -cluster: comma-separated name=url pairs, blank entries
// ignored, every name unique and at least one member.
func TestParseNodeList(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[string]string
		err      string // a substring of the error; "" means success
	}{
		{"one member", "a=http://127.0.0.1:1", map[string]string{"a": "http://127.0.0.1:1"}, ""},
		{"three members", "a=http://h:1,b=http://h:2,c=http://h:3",
			map[string]string{"a": "http://h:1", "b": "http://h:2", "c": "http://h:3"}, ""},
		{"whitespace and trailing commas", " a=http://h:1 ,\tb=http://h:2 ,, ,",
			map[string]string{"a": "http://h:1", "b": "http://h:2"}, ""},
		{"url keeps later equals signs", "a=http://h:1/?x=y", map[string]string{"a": "http://h:1/?x=y"}, ""},
		{"spaces around equals", "a = http://h:1", map[string]string{"a": "http://h:1"}, ""},
		{"spaces around equals in every member", " a = http://h:1 ,b =http://h:2,c=\thttp://h:3",
			map[string]string{"a": "http://h:1", "b": "http://h:2", "c": "http://h:3"}, ""},
		{"duplicate member after trimming", "a=http://h:1,a =http://h:2", nil, `duplicate ring member "a"`},
		{"blank name", " =http://h:1", nil, `bad ring member "=http://h:1"`},
		{"blank url", "a = ,b=http://h:2", nil, `bad ring member "a ="`},
		{"member without equals", "a=http://h:1,b", nil, `bad ring member "b"`},
		{"empty name", "=http://h:1", nil, `bad ring member "=http://h:1"`},
		{"empty url", "a=", nil, `bad ring member "a="`},
		{"duplicate member", "a=http://h:1,b=http://h:2,a=http://h:3", nil, `duplicate ring member "a"`},
		{"empty list", "", nil, "empty ring member list"},
		{"only separators", " , ,", nil, "empty ring member list"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseNodeList(tc.in)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("parseNodeList(%q) = %v, %v; want error containing %q", tc.in, got, err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseNodeList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
		})
	}
}
