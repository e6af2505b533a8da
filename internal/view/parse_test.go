package view

import (
	"strings"
	"testing"
)

func TestParseQueryForms(t *testing.T) {
	cases := []struct {
		src        string
		class      string
		sel        []string
		whereIsNil bool
	}{
		{"select title, rating from Proceedings where rating >= 7", "Proceedings", []string{"title", "rating"}, false},
		{"select * from Item", "Item", nil, true},
		{"from Publication where publisher.name = 'ACM'", "Publication", nil, false},
		{"from Monograph", "Monograph", nil, true},
		{"SELECT isbn FROM Item WHERE shopprice < 40", "Item", []string{"isbn"}, false},
		{"  select  isbn  from  Item  ", "Item", []string{"isbn"}, true},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.src)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.src, err)
			continue
		}
		if q.Class != c.class {
			t.Errorf("ParseQuery(%q).Class = %q, want %q", c.src, q.Class, c.class)
		}
		if len(q.Select) != len(c.sel) {
			t.Errorf("ParseQuery(%q).Select = %v, want %v", c.src, q.Select, c.sel)
		}
		if (q.Where == nil) != c.whereIsNil {
			t.Errorf("ParseQuery(%q).Where nil=%v, want %v", c.src, q.Where == nil, c.whereIsNil)
		}
	}
}

func TestParseQueryKeywordInString(t *testing.T) {
	q, err := ParseQuery("from Item where title = 'where from select'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Class != "Item" || q.Where == nil {
		t.Errorf("keywords inside strings must not split clauses: %+v", q)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []struct{ src, wantSub string }{
		{"", "from clause"},
		{"select a, b", "from clause"},
		{"select from Item", "select clause"},
		{"from", "from clause"},
		{"from  where x = 1", "class"},
		{"from Item where", "where"},
		{"from Item where ((", "where clause"},
		{"select ,a from Item", "empty field"},
	}
	for _, c := range bad {
		if _, err := ParseQuery(c.src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", c.src)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseQuery(%q) error %q should mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseQueryRunsOnEngine(t *testing.T) {
	e := scaledEngine(t, 0)
	q, err := ParseQuery("select title from RefereedPubl where rating >= 7")
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d, want 3 (vldb, caise, jacm)", len(rows))
	}
}
