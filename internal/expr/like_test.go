package expr

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "%d%", false},
		{"PROMO BURNISHED", "PROMO%", true},
		{"STANDARD BURNISHED", "PROMO%", false},
		{"MEDIUM POLISHED BRASS", "%BRASS", true},
		{"forest green metallic", "%green%", true},
		{"special packages with requests", "%special%requests%", true},
		{"special packages", "%special%requests%", false},
		{"aXbXc", "a%b%c", true},
		{"abc", "a%b%c%", true},
		{"aaa", "a%a", true},
		{"ab", "a__", false},
		{"ab", "__", true},
		{"x", "%%", true},
		{"mississippi", "%iss%ippi", true},
		{"mississippi", "%iss%issippi", true},
		{"a%b", "a%", true},
		{"x%y%z", "%y%", true},
		{"50%", "50%", true},
		{"a_", "a%_", true},
	}
	for _, tc := range cases {
		if got := LikeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

// TestLikeMatchesRegexpOracle cross-checks the wildcard matcher against a
// regexp translation over random inputs.
func TestLikeMatchesRegexpOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []byte("abc%_")
	for iter := 0; iter < 3000; iter++ {
		pn, sn := rng.Intn(8), rng.Intn(10)
		pat := make([]byte, pn)
		for i := range pat {
			pat[i] = alphabet[rng.Intn(len(alphabet))]
		}
		s := make([]byte, sn)
		for i := range s {
			s[i] = alphabet[rng.Intn(3)] // only literal chars in the subject
		}
		re := likeToRegexp(string(pat))
		want := re.MatchString(string(s))
		if got := LikeMatch(string(s), string(pat)); got != want {
			t.Fatalf("LikeMatch(%q, %q) = %v, regexp oracle says %v", s, pat, got, want)
		}
	}
}

// likeToRegexp translates a LIKE pattern into an anchored regexp: each
// literal run quoted, % as .* and _ as one byte — (?s) lets . match a
// newline, and the inputs are ASCII so a character is a byte.
func likeToRegexp(pattern string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("(?s)^")
	lit := 0
	for i := 0; i <= len(pattern); i++ {
		if i < len(pattern) && pattern[i] != '%' && pattern[i] != '_' {
			continue
		}
		b.WriteString(regexp.QuoteMeta(pattern[lit:i]))
		if i < len(pattern) {
			if pattern[i] == '%' {
				b.WriteString(".*")
			} else {
				b.WriteString(".")
			}
		}
		lit = i + 1
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

// FuzzLikeMatchesRegexp holds both matchers — LikeMatch and the compiled
// form programs run — to the regexp translation of the pattern, over ASCII
// subjects that may hold % and _ themselves.
func FuzzLikeMatchesRegexp(f *testing.F) {
	for _, seed := range [][2]string{
		{"a%b", "a%"}, {"x%y%z", "%y%"}, {"%", "%"}, {"_", "%_%"}, {"a_b", "a%_"},
		{"special packages requests", "%special%requests%"}, {"pepe", "%p%e%"},
		{"abc", "a%c"}, {"ac", "a%%c"}, {"", "%%"}, {"a.b", "a.b"}, {"x\ny", "x%y"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		for _, str := range []string{s, pattern} {
			for i := 0; i < len(str); i++ {
				if str[i] >= 0x80 {
					t.Skip("non-ASCII: _ matches a byte, . a rune")
				}
			}
		}
		want := likeToRegexp(pattern).MatchString(s)
		if got := LikeMatch(s, pattern); got != want {
			t.Fatalf("LikeMatch(%q, %q) = %v, regexp says %v", s, pattern, got, want)
		}
		dst := make([]bool, 2)
		compileLike(pattern).matchAll(dst, []string{s, s}, false)
		if dst[0] != want || dst[1] != want {
			t.Fatalf("compiled %q over %q = %v, regexp says %v", pattern, s, dst, want)
		}
	})
}

func TestLikeExprEval(t *testing.T) {
	c := vector.NewChunk([]vector.Type{vector.TypeString})
	c.AppendRowValues(vector.NewString("PROMO PLATED TIN"))
	c.AppendRowValues(vector.NewString("SMALL ANODIZED"))
	c.AppendRowValues(vector.NewNull(vector.TypeString))

	v, err := evalProgram(Like(col(0, vector.TypeString), "PROMO%"), c)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bools()[0] || v.Bools()[1] || !v.IsNull(2) {
		t.Error("LIKE eval wrong")
	}
	v, err = evalProgram(NotLike(col(0, vector.TypeString), "PROMO%"), c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bools()[0] || !v.Bools()[1] || !v.IsNull(2) {
		t.Error("NOT LIKE eval wrong")
	}
	// LIKE over a non-string column must fail, hand-assembled too.
	if _, err := CompileProgram(&LikeExpr{In: col(0, vector.TypeInt64), Pattern: "%"}); err == nil {
		t.Error("LIKE over BIGINT must fail")
	}
}
