package token

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// naiveTokenize is a slow reference implementation built on the standard
// library's generic splitter: lowercase first, then split on any rune that
// is not a letter or digit. The production tokenizer must agree with it on
// every input (the historical bug was an ASCII-only fast path that silently
// diverged on unicode and digit-adjacent text).
func naiveTokenize(s string) []string {
	lowered := strings.Map(unicode.ToLower, s)
	return strings.FieldsFunc(lowered, func(r rune) bool { return !isTokenRune(r) })
}

var crossCheckCorpus = []string{
	"",
	"   ",
	"hello world",
	"Hello, World!",
	"black-cat_playing!",
	"abc123 456def 789",
	"ÜNïcode Wörds",
	"ÅNGSTRÖM ångström",
	"naïve café résumé",
	"日本語のテキスト分かち書きなし",
	"русский Текст С Кириллицей",
	"Ελληνικά ΚΕΦΑΛΑΙΑ",
	"emoji 😀 between 🎉 tokens",
	"tabs\tand\nnewlines\r\nmixed",
	"punctuation...everywhere!!!,,,;;;",
	"digits0n7he3dge 0leading trailing9",
	"İstanbul DİACRİTİCS", // dotted capital I: ToLower is not ASCII folding
	"ǅungla titlecase ǅ",  // titlecase rune with a distinct lowercase
	"ß already lowercase sharp s",
	"mixed العربية and English",
	"한국어 단어 사이 공백",
	"a",
	"A",
	"1",
	"٣٤٥ arabic-indic digits", // unicode digits outside ASCII
	"ⅦⅧ roman numeral letters",
}

// TestTokenizeCrossCheck pins the tokenizer to the naive reference on a
// corpus that exercises unicode letters, non-ASCII digits, titlecase runes
// and punctuation runs.
func TestTokenizeCrossCheck(t *testing.T) {
	for _, s := range crossCheckCorpus {
		got := Tokenize(s)
		want := naiveTokenize(s)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestTokenizeLowercaseIdempotent(t *testing.T) {
	for _, s := range crossCheckCorpus {
		once := Tokenize(s)
		twice := Tokenize(strings.Join(once, " "))
		if !reflect.DeepEqual(once, twice) {
			t.Errorf("Tokenize(%q) not idempotent: %v then %v", s, once, twice)
		}
	}
}

func TestUnique(t *testing.T) {
	got := Unique("cat dog CAT bird dog")
	want := []string{"bird", "cat", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Unique = %v, want %v", got, want)
	}
	if Unique("...") != nil {
		t.Error("Unique of token-free input should be nil")
	}
}

// FuzzTokenize fuzzes the tokenizer invariants: agreement with the naive
// reference, idempotence under lowercasing, and Unique being a sorted set.
func FuzzTokenize(f *testing.F) {
	for _, s := range crossCheckCorpus {
		f.Add(s)
	}
	f.Add("\x80\xfe invalid utf8 \xc3")
	f.Add(strings.Repeat("löng ", 100))
	f.Fuzz(func(t *testing.T, s string) {
		got := Tokenize(s)
		want := naiveTokenize(s)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q): %d tokens, reference %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q)[%d] = %q, reference %q", s, i, got[i], want[i])
			}
		}
		rejoined := strings.Join(got, " ")
		if !reflect.DeepEqual(Tokenize(rejoined), got) && len(got) > 0 {
			t.Fatalf("Tokenize(%q) not idempotent", s)
		}
		uniq := Unique(s)
		if !sort.StringsAreSorted(uniq) {
			t.Fatalf("Unique(%q) not sorted: %v", s, uniq)
		}
		for i := 1; i < len(uniq); i++ {
			if uniq[i] == uniq[i-1] {
				t.Fatalf("Unique(%q) has duplicate %q", s, uniq[i])
			}
		}
	})
}
