package events

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// verbs lists the verbs of a format text in order, each as fmt reads it:
// 'd', 't', 's', 'q', 'v', 'f' or 'g'.
func verbs(text string) []byte {
	var vs []byte
	for i := 0; i < len(text); i++ {
		if text[i] != '%' {
			continue
		}
		i++
		switch c := text[i]; c {
		case '%':
		case '.':
			vs = append(vs, text[i+2])
			i += 2
		default:
			vs = append(vs, c)
		}
	}
	return vs
}

// sprintf is what fmt.Sprintf writes for f with the operands Append reads:
// strings in order for the string verbs, numbers in order for the others,
// an int for %d and a bool for %t. A list format's last verb reads the
// strings left as the old code rendered them: a %v list as fmt prints a
// []string, a %q list each string %q-quoted and joined by ", ".
func sprintf(f Format, strs []string, nums []float64) string {
	text := table[f].text
	var args []any
	si, ni := 0, 0
	vs := verbs(text)
	lastStr := -1
	if table[f].list {
		for k, v := range vs {
			if v == 's' || v == 'q' || v == 'v' {
				lastStr = k
			}
		}
	}
	for k, v := range vs {
		switch v {
		case 's', 'q', 'v':
			if k != lastStr {
				args = append(args, strs[si])
				si++
				continue
			}
			rest := strs[si:]
			si = len(strs)
			if v == 'v' {
				args = append(args, rest)
				continue
			}
			quoted := make([]string, len(rest))
			for j, s := range rest {
				quoted[j] = fmt.Sprintf("%q", s)
			}
			args = append(args, strings.Join(quoted, ", "))
			text = strings.Replace(text, "%q", "%s", 1) // the one %q of Decision
		case 'd':
			args = append(args, int64(nums[ni]))
			ni++
		case 't':
			args = append(args, nums[ni] != 0)
			ni++
		default:
			args = append(args, nums[ni])
			ni++
		}
	}
	return fmt.Sprintf(text, args...)
}

// specialFloats are the values where float formatting has edges: NaN,
// the infinities, both zeros, subnormals, the largest and smallest
// normals, 1e21 (where encoding/json turns to exponents) and the powers
// of ten around each %g precision's switch to exponent form.
var specialFloats = func() []float64 {
	xs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e21, -1e21, 1e20, 999999999999999999999.0,
		0.5, 1.5, 2.5, 0.05, 0.15, 0.25, 0.0005, 99.95, 9.9995, 0.99995, 123456.5,
	}
	for e := -6; e <= 6; e++ {
		p := math.Pow10(e)
		xs = append(xs, p, -p, p*0.99995, p*0.9995, p*0.995, p*9.9995, p*9.995)
	}
	return xs
}()

// randFloat draws a special value, a value of random bits or a value of
// random magnitude.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return specialFloats[rng.Intn(len(specialFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	}
	return (rng.Float64() - 0.5) * math.Pow10(rng.Intn(40)-20)
}

// randInt draws an int within float64's exact range, as a number operand.
func randInt(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return float64(rng.Intn(512) - 256)
	}
	return float64(rng.Int63n(1<<53) - 1<<52)
}

var stringPool = []string{"", "gpu", "fpga", "NVIDIA GeForce RTX 2080 Ti", `say "hi"`, "tab\there", "new\nline",
	"back\\slash", "Générer ✓", "\xff\xfe invalid", "<&>", "\u2028", "%d %s %%", "nbody_hotspot"}

func randString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	return stringPool[rng.Intn(len(stringPool))]
}

// operands draws what f's verbs read: for a list format, a list of zero
// to five strings in place of its last string verb.
func operands(rng *rand.Rand, f Format) ([]string, []float64) {
	var strs []string
	var nums []float64
	vs := verbs(table[f].text)
	for k, v := range vs {
		switch v {
		case 's', 'q', 'v':
			n := 1
			if table[f].list && k == len(vs)-1 || table[f].list && !strings.ContainsAny(string(vs[k+1:]), "sqv") {
				n = rng.Intn(6)
			}
			for range n {
				strs = append(strs, randString(rng))
			}
		case 'd':
			nums = append(nums, randInt(rng))
		case 't':
			nums = append(nums, float64(rng.Intn(2)))
		default:
			nums = append(nums, randFloat(rng))
		}
	}
	return strs, nums
}

// TestRenderMatchesSprintf: for every format of the table, over random
// operands and every special float, Append writes what fmt.Sprintf writes.
func TestRenderMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	checked := 0
	for f := FormatNone + 1; f < numFormats; f++ {
		ns, nn := f.operands()
		vs := verbs(table[f].text)
		if len(vs) != ns+nn {
			t.Fatalf("%q: Operands counts %d+%d verbs, the text has %d", table[f].text, ns, nn, len(vs))
		}
		for trial := range 400 {
			strs, nums := operands(rng, f)
			if trial < len(specialFloats) {
				ni := 0
				for _, v := range vs {
					switch v {
					case 'f', 'g':
						nums[ni] = specialFloats[trial]
						ni++
					case 'd', 't':
						ni++
					}
				}
			}
			checkRender(t, f, strs, nums)
			checked++
		}
	}
	t.Logf("%d renderings of %d formats", checked, numFormats-1)
}

// checkRender compares Append with sprintf, and the frame that carries the
// detail with the JSON of a frame whose detail is sprintf's text.
func checkRender(t *testing.T, f Format, strs []string, nums []float64) {
	t.Helper()
	want := sprintf(f, strs, nums)
	if got := string(f.Append(nil, strs, nums)); got != want {
		t.Fatalf("%q with %q %v:\n got %q\nwant %q", table[f].text, strs, nums, got, want)
	}
	if len(strs) > MaxStrs || len(nums) > MaxNums {
		return
	}
	ts := time.Date(2024, 5, 27, 9, 0, 0, 0, time.UTC)
	typed := New(f, "n", strs, nums...)
	if got, want := appendEvent(nil, &typed, ts), marshalled(t, typed, want, ts); string(got) != string(want) {
		t.Fatalf("%q with %q %v: frame\n got %s\nwant %s", table[f].text, strs, nums, got, want)
	}
}

// TestRenderMissingOperands: an event short of operands renders them as
// fmt renders missing ones.
func TestRenderMissingOperands(t *testing.T) {
	got := string(BlocksizeSwept.Append(nil, nil, []float64{5}))
	if want := "%!s(MISSING): swept 5 candidates, best=%!d(MISSING) (%!g(MISSING)s)"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// FuzzTraceRender: Append writes what fmt.Sprintf writes for any format of
// the table and any operands.
func FuzzTraceRender(f *testing.F) {
	f.Add(uint8(1), "A", "", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
	f.Add(uint8(2), "nbody_step", "x", 257.0, 53.0, 5.0, 97.9, 6.13e6, 0.0, 0.0)
	f.Add(uint8(22), `"quoted"`, "\xff", math.NaN(), math.Inf(-1), 1e21, -0.0, 5e-324, 0.99995, 1e-5)
	f.Fuzz(func(t *testing.T, fi uint8, s1, s2 string, x1, x2, x3, x4, x5, x6, x7 float64) {
		fm := Format(fi%uint8(numFormats-1)) + 1
		pool := []string{s1, s2, s1 + s2}
		xs := []float64{x1, x2, x3, x4, x5, x6, x7}
		var strs []string
		var nums []float64
		for k, v := range verbs(table[fm].text) {
			switch v {
			case 's', 'q', 'v':
				strs = append(strs, pool[k%len(pool)])
			case 'd':
				x := xs[len(nums)%len(xs)]
				if math.IsNaN(x) {
					x = 0
				}
				nums = append(nums, math.Trunc(math.Max(-1<<53, math.Min(1<<53, x))))
			default:
				nums = append(nums, xs[len(nums)%len(xs)])
			}
		}
		checkRender(t, fm, strs, nums)
	})
}
