package vector

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDateRoundTripKnown(t *testing.T) {
	cases := []struct {
		s       string
		y, m, d int
	}{
		{"1970-01-01", 1970, 1, 1},
		{"1992-01-01", 1992, 1, 1},
		{"1998-12-31", 1998, 12, 31},
		{"2000-02-29", 2000, 2, 29},
		{"1995-06-17", 1995, 6, 17},
		{"1969-12-31", 1969, 12, 31},
	}
	for _, tc := range cases {
		days, err := ParseDate(tc.s)
		if err != nil {
			t.Fatalf("ParseDate(%q): %v", tc.s, err)
		}
		y, m, d := DateToYMD(days)
		if y != tc.y || m != tc.m || d != tc.d {
			t.Errorf("%q -> %d-%d-%d", tc.s, y, m, d)
		}
		if FormatDate(days) != tc.s {
			t.Errorf("FormatDate(%d) = %q, want %q", days, FormatDate(days), tc.s)
		}
	}
}

func TestDateMatchesTimePackage(t *testing.T) {
	// Cross-check the civil-date math against the standard library over the
	// full TPC-H range plus margins.
	start := time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20000; i += 7 {
		tm := start.AddDate(0, 0, i)
		want := int64(tm.Unix() / 86400)
		got := DateFromYMD(tm.Year(), int(tm.Month()), tm.Day())
		if got != want {
			t.Fatalf("DateFromYMD(%v) = %d, want %d", tm, got, want)
		}
		y, m, d := DateToYMD(got)
		if y != tm.Year() || m != int(tm.Month()) || d != tm.Day() {
			t.Fatalf("DateToYMD(%d) = %d-%d-%d, want %v", got, y, m, d, tm)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(raw int32) bool {
		days := int64(raw % 100000)
		y, m, d := DateToYMD(days)
		return DateFromYMD(y, m, d) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDateYearMonth(t *testing.T) {
	d := MustParseDate("1997-09-03")
	if DateYear(d) != 1997 || DateMonth(d) != 9 {
		t.Errorf("year/month of 1997-09-03 = %d/%d", DateYear(d), DateMonth(d))
	}
}

func TestParseDateErrors(t *testing.T) {
	bad := []string{"not-a-date", "1995-13-01", "1995-02-30", "1995-00-10", ""}
	for _, s := range bad {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) should fail", s)
		}
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseDate must panic on bad input")
		}
	}()
	MustParseDate("bogus")
}
