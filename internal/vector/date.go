package vector

import "fmt"

// Dates are represented as int64 days since the Unix epoch (1970-01-01).
// The civil-date conversions below use Howard Hinnant's proleptic Gregorian
// algorithms, valid across the whole TPC-H date range and far beyond.

// DateFromYMD converts a civil date to days since the Unix epoch.
func DateFromYMD(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 && yy%400 != 0 {
		era--
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift epoch to 1970-01-01
}

// DateToYMD converts days since the Unix epoch to a civil date.
func DateToYMD(days int64) (y, m, d int) {
	z := days + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// DateYear returns the calendar year of an epoch-day date.
func DateYear(days int64) int {
	y, _, _ := DateToYMD(days)
	return y
}

// DateMonth returns the calendar month (1-12) of an epoch-day date.
func DateMonth(days int64) int {
	_, m, _ := DateToYMD(days)
	return m
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if (y%4 == 0 && y%100 != 0) || y%400 == 0 {
			return 29
		}
		return 28
	}
}

// FormatDate renders an epoch-day date as YYYY-MM-DD.
func FormatDate(days int64) string {
	y, m, d := DateToYMD(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// ParseDate parses a YYYY-MM-DD string into epoch days.
func ParseDate(s string) (int64, error) {
	var y, m, d int
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err != nil {
		return 0, fmt.Errorf("parse date %q: %w", s, err)
	}
	if m < 1 || m > 12 || d < 1 || d > daysInMonth(y, m) {
		return 0, fmt.Errorf("parse date %q: out of range", s)
	}
	return DateFromYMD(y, m, d), nil
}

// MustParseDate is ParseDate that panics on malformed input; intended for
// compile-time-constant dates in query definitions and tests.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}
