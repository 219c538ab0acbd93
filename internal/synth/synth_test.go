package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/circuit"
)

func TestGenerateMini(t *testing.T) {
	c, err := GenerateNamed("mini", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != 6 { // no DFFs in mini
		t.Errorf("inputs = %d, want 6", st.Inputs)
	}
	if st.Outputs != 4 {
		t.Errorf("outputs = %d, want 4", st.Outputs)
	}
	if st.Logic != 40 {
		t.Errorf("logic = %d, want 40", st.Logic)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateNamed("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateNamed("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	if benchText(t, a) != benchText(t, b) {
		t.Errorf("same seed produced different circuits")
	}
	c, err := GenerateNamed("small", 8)
	if err != nil {
		t.Fatal(err)
	}
	if benchText(t, a) == benchText(t, c) {
		t.Errorf("different seeds produced identical circuits")
	}
}

func TestScanConversionCounts(t *testing.T) {
	p, _ := ProfileByName("small")
	c, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Inputs != p.PI+p.DFF {
		t.Errorf("scan inputs = %d, want %d", st.Inputs, p.PI+p.DFF)
	}
	if st.Outputs != p.PO+p.DFF {
		t.Errorf("scan outputs = %d, want %d", st.Outputs, p.PO+p.DFF)
	}
}

func TestDepthNearTarget(t *testing.T) {
	for _, name := range []string{"mini", "small", "medium"} {
		p, _ := ProfileByName(name)
		c, err := Generate(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		d := c.Depth() - 1 // port gates add one level
		if d < p.Depth-2 || d > p.Depth+4 {
			t.Errorf("%s depth = %d, target %d", name, d, p.Depth)
		}
	}
}

func TestAllTableICircuitsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuits in -short mode")
	}
	for _, p := range Profiles {
		if p.Name[0] != 's' {
			continue
		}
		c, err := Generate(p, 2026)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := c.Stats()
		if st.Logic != p.Gates {
			t.Errorf("%s logic = %d, want %d", p.Name, st.Logic, p.Gates)
		}
		if st.Inputs != p.PI+p.DFF || st.Outputs != p.PO+p.DFF {
			t.Errorf("%s IO = %d/%d, want %d/%d", p.Name, st.Inputs, st.Outputs, p.PI+p.DFF, p.PO+p.DFF)
		}
	}
}

func TestISCAS85CircuitsGenerate(t *testing.T) {
	for _, name := range []string{"c432", "c499", "c880"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		c, err := Generate(p, 85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := c.Stats()
		if st.Logic != p.Gates || st.Inputs != p.PI || st.Outputs != p.PO {
			t.Errorf("%s: stats %v vs profile %+v", name, st, p)
		}
	}
	if !testing.Short() {
		for _, name := range []string{"c1908", "c2670", "c3540", "c5315", "c6288", "c7552", "c1355"} {
			c, err := GenerateNamed(name, 85)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := c.Check(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestLittleDeadLogic(t *testing.T) {
	c, err := GenerateNamed("medium", 5)
	if err != nil {
		t.Fatal(err)
	}
	dangling := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == circuit.Input || g.Type == circuit.Output {
			continue
		}
		if len(g.Fanout) == 0 {
			dangling++
		}
	}
	if frac := float64(dangling) / float64(c.Stats().Logic); frac > 0.02 {
		t.Errorf("dead logic fraction %.3f (%d gates), want <= 2%%", frac, dangling)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("s1196"); !ok {
		t.Errorf("s1196 missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Errorf("bogus profile found")
	}
	if _, err := GenerateNamed("nope", 1); err == nil {
		t.Errorf("unknown profile generated")
	}
}

func TestInfeasibleProfile(t *testing.T) {
	if _, err := Generate(Profile{Name: "x", PI: 0, PO: 1, Gates: 5}, 1); err == nil {
		t.Errorf("zero-PI profile accepted")
	}
	if _, err := Generate(Profile{Name: "x", PI: 1, PO: 10, Gates: 5}, 1); err == nil {
		t.Errorf("PO > gates profile accepted")
	}
}

func TestRoundTripThroughBench(t *testing.T) {
	c, err := GenerateNamed("small", 9)
	if err != nil {
		t.Fatal(err)
	}
	text := benchText(t, c)
	back, err := benchfmt.ParseString(text, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != back.Stats() {
		t.Errorf("bench round trip changed stats: %v -> %v", c.Stats(), back.Stats())
	}
}

// benchText renders c in .bench format.
func benchText(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := benchfmt.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// goldenSeeds are the generation seeds pinned by TestProfilesGolden:
// the Table I circuit seed (eval's CircuitSeed) and a second one.
var goldenSeeds = [2]uint64{2003, 7}

// goldenProfiles holds, per profile, the SHA-256 of benchfmt.Write's
// rendering of Generate(profile, seed) for each of goldenSeeds,
// recorded on the quadratic generator that rebuilt its candidate lists
// per gate. A faster generator must make the same random draws and so
// reproduce every netlist bit for bit.
var goldenProfiles = map[string][2]string{
	"s1196":  {"86d9c6d25b7fa92ce917a11348c3dc609a99836f6283aebd7de42e14941d89d5", "e4db474fca268e402b9a7a86811fd8ad1cf94730a71bb4486810f0cea9f3da59"},
	"s1238":  {"d0dc190860ed39c2e967c351000ddf2af32e68620dca081554b65cb2d3932fda", "af36bca28f0ada22a2098c4c0c1b804e1a0a03a9092c6778c8218782251880eb"},
	"s1423":  {"41774679dd43e83202abaf811c8507eb5ffc6a8df9ebce2dc1cde7dfe2f1f849", "3171c58a7f1cfea376b6ef349ad0976bed1626795b19bdb5fcc7333463f88765"},
	"s1488":  {"879d9feaf29c3e4cffbcfd99bc3cfbda4f9a34fb20f4de25f2bf8a0663395b87", "b2f14df9c7bb24e0a76a8cf4d835d9a80eb12e0e2a5de390942e0cf82ef4bb68"},
	"s5378":  {"f9126358b4b22f043e880dc7d7b4db630c9c0a95fc331524fd0b6211faa58028", "67f7b80deeed77f7ae7328a3bebb261ca9dd3c3643ea9eec1cc89365cbc8a892"},
	"s9234":  {"8f92a070c98f183c50328034076a79e8ac8a7bcaeb0a0434d4fd2e4dde6746ef", "a1e86cf4bb5a5a5117bfe6ac966bb1d3383762711b9dddaa9c98c478fd9669cf"},
	"s13207": {"10e46e4e576b629b7d4a4cc1969e9340e7d632eab61ab6620e336b5ef0656052", "923d8268fef737bdb9ff99dcc84712da8dd28ae9b797960091fcdca632257835"},
	"s15850": {"c3725755fb372bd39a3b47ea4608219ebcdfcb159efaff335ab3a16580ed6980", "3938553291430ce5931f4d0e8bf942cbbe2c0961bd78931382d7b4d12c385b68"},
	"c432":   {"4a5af4f1ffcacb740eacec075b217e73bf87c89da565e6a2db997c3932df9701", "aecc1e00ef3f1042a88613f8e38285299455d951ec63b00d45ffd05ad894b811"},
	"c499":   {"7dd0086541d1a6e599f6982801fa0bec6ddbfe8934a19d3c56372ec4789ad64c", "cd292809f127082f7da52ef2e0254de8957a6149b497caad2c527818f621a449"},
	"c880":   {"bba7fd33b10a889407beed8208c85c73c94d094c8a75cfde97b33be2114c3ccd", "15353d9aad3f1e132620b2fb6d8418fd4adc7e17f68a6fab9c5de22410d233d0"},
	"c1355":  {"d905f141ea5e9c73a3dc38fc10b7582a7fd73ca767d9a19c1c940d4cd7c1b96c", "42787712a775d74dd9b38070e08c94db280cb02d59433b4c01467d99e944270c"},
	"c1908":  {"8b74e872b0dea0a94624b3726b37d0f918f6b990f14da723e428d7ceea9326a5", "87538f5dade85a850080e5138bb1a9cc8a702714225746b7df5c07c05ab7cb48"},
	"c2670":  {"81441fa4929cd62b0580d423c423a00bc472e2af9147d5c0626baf28e28e1d94", "f24bd57bd4441bc1e7a780bc390f5f148d22e0f50e8e40ee87384d106960b038"},
	"c3540":  {"290f774e1d76f365c9ddd592d41209a15dd57ff6d44078530918dcb5ee542006", "8829e94439870e0e138f777bfe6549e4b3866b9caaeae4534e0c80ff6fc9fc2d"},
	"c5315":  {"a2c97f4a495a7495b9cc29cac1ca3e8b14a7e2750a2245a24fad2ae82629815f", "bdaedcd40e1bfa8bb4bfb53d117789a3e2cd776521df7478a247f33fd57a76d9"},
	"c6288":  {"bb53ce1ec95713aac636199b7e31673e3a40182d5a937c2267eb8cf6e4a794f6", "655bb56b03287706025e27c262e654646aae7fc7cf0325be165aae5ed2c983f3"},
	"c7552":  {"0a91c2a5a46b5428780d34f81f3627bc081be278bd6777b6caa004f4c96f54f7", "a2d4a105d0d0a4212d4ac21ba044c2bfd7913c21d0298d70fb5e1656ea701d81"},
	"mini":   {"8062611a46a4ff45ba866915e54047b80831db9ae58b1285ff5924ad2e9b991d", "4ecc095547c0d508cd976105ab16941f82265b3e37dbe6ee7c49abbecd93e7d5"},
	"small":  {"f1070a5b5991ce02014f3df76ddfbdff7c4f40cf6579b30f9d53d3223910706d", "5cb6536b45a8254f97fe5581af90459465e70ee239f74dbb996e9d1d6b1889fa"},
	"medium": {"a2c6c2452fec355614ad49500be66965198b30f23e1ed1582b82519c601a6322", "82916ee1614aed74d8ff58c0a7c2cb2fd9ce556f3976c0823e2412adcd857604"},
}

func TestProfilesGolden(t *testing.T) {
	if len(goldenProfiles) != len(Profiles) {
		t.Fatalf("golden table has %d profiles, Profiles has %d", len(goldenProfiles), len(Profiles))
	}
	for _, p := range Profiles {
		want, ok := goldenProfiles[p.Name]
		if !ok {
			t.Errorf("%s: no golden digest", p.Name)
			continue
		}
		for k, seed := range goldenSeeds {
			c, err := Generate(p, seed)
			if err != nil {
				t.Fatalf("%s@%d: %v", p.Name, seed, err)
			}
			sum := sha256.Sum256([]byte(benchText(t, c)))
			if got := hex.EncodeToString(sum[:]); got != want[k] {
				t.Errorf("%s@%d netlist drifted:\n got  %s\n want %s", p.Name, seed, got, want[k])
			}
		}
	}
}

// TestGenerateAllocLinear guards generation against quadratic
// behavior: bytes allocated per gate must stay within 2x between
// s1196 (529 gates) and s15850 (9772 gates). Copying every lower-level
// signal per gate made s15850 allocate 22x more per gate than s1196.
func TestGenerateAllocLinear(t *testing.T) {
	perGate := func(name string) float64 {
		p, _ := ProfileByName(name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Generate(p, 2003); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(p.Gates)
	}
	small, large := perGate("s1196"), perGate("s15850")
	t.Logf("B/gate: s1196 %.0f, s15850 %.0f (%.1fx)", small, large, large/small)
	if large > 2*small {
		t.Errorf("s15850 allocates %.0f B/gate, over 2x s1196's %.0f", large, small)
	}
}
