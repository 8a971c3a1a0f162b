package tpch

import (
	"strconv"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

// Config parameterizes generation.
type Config struct {
	// SF is the scale factor. SF 1 is the full TPC-H scale (6M lineitems);
	// the experiments default to 0.01/0.05/0.1, preserving the paper's
	// 10:50:100 ratio at laptop scale.
	SF float64
	// Seed perturbs the deterministic generator; same (SF, Seed) gives a
	// bit-identical database.
	Seed int64
}

// rng is a splitmix64 PRNG: tiny, fast, deterministic across platforms.
// buf is scratch for the strings it builds.
type rng struct {
	state uint64
	buf   []byte
}

func newRNG(seed int64, stream string) *rng {
	s := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(stream); i++ {
		s = (s ^ uint64(stream[i])) * 0x100000001b3
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeI returns a uniform int64 in [lo, hi].
func (r *rng) rangeI(lo, hi int64) int64 { return lo + int64(r.next()%uint64(hi-lo+1)) }

// rangeF returns a uniform float64 in [lo, hi).
func (r *rng) rangeF(lo, hi float64) float64 {
	return lo + (hi-lo)*(float64(r.next()>>11)/(1<<53))
}

func (r *rng) pick(words []string) string { return words[r.intn(len(words))] }

// words joins n words picked from vocab with single spaces.
func (r *rng) words(vocab []string, n int) string {
	r.buf = r.buf[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			r.buf = append(r.buf, ' ')
		}
		r.buf = append(r.buf, r.pick(vocab)...)
	}
	return string(r.buf)
}

func (r *rng) comment(minWords, maxWords int) string {
	return r.words(commentWords, minWords+r.intn(maxWords-minWords+1))
}

// phone is the spec's phone number: "%02d-%03d-%03d-%04d" of the nation
// key plus 10 and three random groups.
func (r *rng) phone(nationKey int64) string {
	b := appendPadded(r.buf[:0], nationKey+10, 2)
	b = appendPadded(append(b, '-'), r.rangeI(100, 999), 3)
	b = appendPadded(append(b, '-'), r.rangeI(100, 999), 3)
	b = appendPadded(append(b, '-'), r.rangeI(1000, 9999), 4)
	r.buf = b
	return string(b)
}

// appendPadded appends v >= 0 in decimal, zero-padded to width digits, as
// %0<width>d formats it.
func appendPadded(b []byte, v int64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], v, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// keyName is prefix followed by v zero-padded to nine digits, the spec's
// "Supplier#%09d" shape.
func keyName(prefix string, v int64) string {
	var b [32]byte
	return string(appendPadded(append(b[:0], prefix...), v, 9))
}

// manufacturers[m] is p_mfgr and brands[m][n] p_brand for manufacturer m+1
// and brand n+1.
var (
	manufacturers = [5]string{"Manufacturer#1", "Manufacturer#2", "Manufacturer#3", "Manufacturer#4", "Manufacturer#5"}
	brands        = [5][5]string{
		{"Brand#11", "Brand#12", "Brand#13", "Brand#14", "Brand#15"},
		{"Brand#21", "Brand#22", "Brand#23", "Brand#24", "Brand#25"},
		{"Brand#31", "Brand#32", "Brand#33", "Brand#34", "Brand#35"},
		{"Brand#41", "Brand#42", "Brand#43", "Brand#44", "Brand#45"},
		{"Brand#51", "Brand#52", "Brand#53", "Brand#54", "Brand#55"},
	}
)

// Row counts at scale factor 1.
const (
	baseSupplier = 10000
	baseCustomer = 150000
	basePart     = 200000
	baseOrders   = 1500000
	suppsPerPart = 4
	maxLines     = 7
)

func scaled(base int, sf float64) int64 {
	n := int64(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// Dates.
var (
	startDate   = vector.MustParseDate("1992-01-01")
	endDate     = vector.MustParseDate("1998-08-02")
	currentDate = vector.MustParseDate("1995-06-17")
)

// partRetailPrice is the spec's deterministic retail price function.
func partRetailPrice(partKey int64) float64 {
	return float64(90000+(partKey/10)%20001+100*(partKey%1000)) / 100.0
}

// Generate builds the full TPC-H database into a fresh catalog.
func Generate(cfg Config) (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, gen := range []func(*catalog.Catalog, Config) error{
		genRegion, genNation, genSupplier, genCustomer, genPart, genPartSupp, genOrdersAndLineitem,
	} {
		if err := gen(cat, cfg); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// addTable registers the built columns as the named table.
func addTable(cat *catalog.Catalog, name string, schema *catalog.Schema, cols []*vector.Vector) error {
	t, err := catalog.TableOf(name, schema, cols)
	if err != nil {
		return err
	}
	return cat.Add(t)
}

// Each gen function appends a row's values in the order it draws them, so
// the same (SF, Seed) gives the same bytes.

func genRegion(cat *catalog.Catalog, _ Config) error {
	schema := catalog.NewSchema(
		catalog.Col("r_regionkey", vector.TypeInt64),
		catalog.Col("r_name", vector.TypeString),
		catalog.Col("r_comment", vector.TypeString),
	)
	c := schema.NewColumns(len(regions))
	r := newRNG(0, "region")
	for _, reg := range regions {
		c[0].AppendInt64(reg.Key)
		c[1].AppendString(reg.Name)
		c[2].AppendString(r.comment(3, 8))
	}
	return addTable(cat, "region", schema, c)
}

func genNation(cat *catalog.Catalog, _ Config) error {
	schema := catalog.NewSchema(
		catalog.Col("n_nationkey", vector.TypeInt64),
		catalog.Col("n_name", vector.TypeString),
		catalog.Col("n_regionkey", vector.TypeInt64),
		catalog.Col("n_comment", vector.TypeString),
	)
	c := schema.NewColumns(len(nations))
	r := newRNG(0, "nation")
	for _, n := range nations {
		c[0].AppendInt64(n.Key)
		c[1].AppendString(n.Name)
		c[2].AppendInt64(n.Region)
		c[3].AppendString(r.comment(3, 8))
	}
	return addTable(cat, "nation", schema, c)
}

func genSupplier(cat *catalog.Catalog, cfg Config) error {
	schema := catalog.NewSchema(
		catalog.Col("s_suppkey", vector.TypeInt64),
		catalog.Col("s_name", vector.TypeString),
		catalog.Col("s_address", vector.TypeString),
		catalog.Col("s_nationkey", vector.TypeInt64),
		catalog.Col("s_phone", vector.TypeString),
		catalog.Col("s_acctbal", vector.TypeFloat64),
		catalog.Col("s_comment", vector.TypeString),
	)
	r := newRNG(cfg.Seed, "supplier")
	n := scaled(baseSupplier, cfg.SF)
	c := schema.NewColumns(int(n))
	for k := int64(1); k <= n; k++ {
		nk := int64(r.intn(len(nations)))
		comment := r.comment(5, 12)
		// The spec plants "Customer ... Complaints" into ~0.05% of supplier
		// comments; Q16 anti-joins them away.
		if r.intn(2000) == 0 {
			comment = "Customer " + r.pick(commentWords) + " Complaints " + comment
		}
		c[0].AppendInt64(k)
		c[1].AppendString(keyName("Supplier#", k))
		c[2].AppendString(r.comment(2, 4))
		c[3].AppendInt64(nk)
		c[4].AppendString(r.phone(nk))
		c[5].AppendFloat64(r.rangeF(-999.99, 9999.99))
		c[6].AppendString(comment)
	}
	return addTable(cat, "supplier", schema, c)
}

func genCustomer(cat *catalog.Catalog, cfg Config) error {
	schema := catalog.NewSchema(
		catalog.Col("c_custkey", vector.TypeInt64),
		catalog.Col("c_name", vector.TypeString),
		catalog.Col("c_address", vector.TypeString),
		catalog.Col("c_nationkey", vector.TypeInt64),
		catalog.Col("c_phone", vector.TypeString),
		catalog.Col("c_acctbal", vector.TypeFloat64),
		catalog.Col("c_mktsegment", vector.TypeString),
		catalog.Col("c_comment", vector.TypeString),
	)
	r := newRNG(cfg.Seed, "customer")
	n := scaled(baseCustomer, cfg.SF)
	c := schema.NewColumns(int(n))
	for k := int64(1); k <= n; k++ {
		nk := int64(r.intn(len(nations)))
		c[0].AppendInt64(k)
		c[1].AppendString(keyName("Customer#", k))
		c[2].AppendString(r.comment(2, 4))
		c[3].AppendInt64(nk)
		c[4].AppendString(r.phone(nk))
		c[5].AppendFloat64(r.rangeF(-999.99, 9999.99))
		c[6].AppendString(r.pick(segments))
		c[7].AppendString(r.comment(6, 16))
	}
	return addTable(cat, "customer", schema, c)
}

func genPart(cat *catalog.Catalog, cfg Config) error {
	schema := catalog.NewSchema(
		catalog.Col("p_partkey", vector.TypeInt64),
		catalog.Col("p_name", vector.TypeString),
		catalog.Col("p_mfgr", vector.TypeString),
		catalog.Col("p_brand", vector.TypeString),
		catalog.Col("p_type", vector.TypeString),
		catalog.Col("p_size", vector.TypeInt64),
		catalog.Col("p_container", vector.TypeString),
		catalog.Col("p_retailprice", vector.TypeFloat64),
		catalog.Col("p_comment", vector.TypeString),
	)
	r := newRNG(cfg.Seed, "part")
	n := scaled(basePart, cfg.SF)
	c := schema.NewColumns(int(n))
	for k := int64(1); k <= n; k++ {
		name := r.words(colors, 5)
		m := r.intn(5)
		c[0].AppendInt64(k)
		c[1].AppendString(name)
		c[2].AppendString(manufacturers[m])
		c[3].AppendString(brands[m][r.intn(5)])
		c[4].AppendString(r.pick(typeSyllable1) + " " + r.pick(typeSyllable2) + " " + r.pick(typeSyllable3))
		c[5].AppendInt64(r.rangeI(1, 50))
		c[6].AppendString(r.pick(containerSyllable1) + " " + r.pick(containerSyllable2))
		c[7].AppendFloat64(partRetailPrice(k))
		c[8].AppendString(r.comment(2, 6))
	}
	return addTable(cat, "part", schema, c)
}

func genPartSupp(cat *catalog.Catalog, cfg Config) error {
	schema := catalog.NewSchema(
		catalog.Col("ps_partkey", vector.TypeInt64),
		catalog.Col("ps_suppkey", vector.TypeInt64),
		catalog.Col("ps_availqty", vector.TypeInt64),
		catalog.Col("ps_supplycost", vector.TypeFloat64),
		catalog.Col("ps_comment", vector.TypeString),
	)
	r := newRNG(cfg.Seed, "partsupp")
	nParts := scaled(basePart, cfg.SF)
	nSupp := scaled(baseSupplier, cfg.SF)
	c := schema.NewColumns(int(nParts * suppsPerPart))
	for pk := int64(1); pk <= nParts; pk++ {
		for s := int64(0); s < suppsPerPart; s++ {
			// The spec's supplier spreading function: distinct suppliers per part.
			sk := (pk+s*(nSupp/suppsPerPart+(pk-1)/nSupp))%nSupp + 1
			c[0].AppendInt64(pk)
			c[1].AppendInt64(sk)
			c[2].AppendInt64(r.rangeI(1, 9999))
			c[3].AppendFloat64(r.rangeF(1, 1000))
			c[4].AppendString(r.comment(4, 10))
		}
	}
	return addTable(cat, "partsupp", schema, c)
}

func genOrdersAndLineitem(cat *catalog.Catalog, cfg Config) error {
	ordersSchema := catalog.NewSchema(
		catalog.Col("o_orderkey", vector.TypeInt64),
		catalog.Col("o_custkey", vector.TypeInt64),
		catalog.Col("o_orderstatus", vector.TypeString),
		catalog.Col("o_totalprice", vector.TypeFloat64),
		catalog.Col("o_orderdate", vector.TypeDate),
		catalog.Col("o_orderpriority", vector.TypeString),
		catalog.Col("o_clerk", vector.TypeString),
		catalog.Col("o_shippriority", vector.TypeInt64),
		catalog.Col("o_comment", vector.TypeString),
	)
	lineitemSchema := catalog.NewSchema(
		catalog.Col("l_orderkey", vector.TypeInt64),
		catalog.Col("l_partkey", vector.TypeInt64),
		catalog.Col("l_suppkey", vector.TypeInt64),
		catalog.Col("l_linenumber", vector.TypeInt64),
		catalog.Col("l_quantity", vector.TypeFloat64),
		catalog.Col("l_extendedprice", vector.TypeFloat64),
		catalog.Col("l_discount", vector.TypeFloat64),
		catalog.Col("l_tax", vector.TypeFloat64),
		catalog.Col("l_returnflag", vector.TypeString),
		catalog.Col("l_linestatus", vector.TypeString),
		catalog.Col("l_shipdate", vector.TypeDate),
		catalog.Col("l_commitdate", vector.TypeDate),
		catalog.Col("l_receiptdate", vector.TypeDate),
		catalog.Col("l_shipinstruct", vector.TypeString),
		catalog.Col("l_shipmode", vector.TypeString),
		catalog.Col("l_comment", vector.TypeString),
	)

	r := newRNG(cfg.Seed, "orders")
	nOrders := scaled(baseOrders, cfg.SF)
	nCust := scaled(baseCustomer, cfg.SF)
	nParts := scaled(basePart, cfg.SF)
	nSupp := scaled(baseSupplier, cfg.SF)
	o := ordersSchema.NewColumns(int(nOrders))
	// An order has 1..maxLines lines, 4 on average; 4.1 per order leaves
	// room for the spread of all but the smallest scale factors, which
	// grow once.
	l := lineitemSchema.NewColumns(int(nOrders * 41 / 10))

	for ok := int64(1); ok <= nOrders; ok++ {
		// Spec: only customers with custkey%3 != 0 place orders (Q22 depends
		// on the existence of order-less customers).
		ck := r.rangeI(1, nCust)
		for ck%3 == 0 {
			ck = r.rangeI(1, nCust)
		}
		odate := startDate + r.rangeI(0, endDate-startDate-121)
		nLines := 1 + r.intn(maxLines)
		var totalPrice float64
		allF, allO := true, true
		for ln := 1; ln <= nLines; ln++ {
			pk := r.rangeI(1, nParts)
			sk := r.rangeI(1, nSupp)
			qty := float64(r.rangeI(1, 50))
			extPrice := qty * partRetailPrice(pk)
			disc := float64(r.intn(11)) / 100.0
			tax := float64(r.intn(9)) / 100.0
			shipDate := odate + r.rangeI(1, 121)
			commitDate := odate + r.rangeI(30, 90)
			receiptDate := shipDate + r.rangeI(1, 30)

			returnFlag := "N"
			if receiptDate <= currentDate {
				returnFlag = [2]string{"R", "A"}[r.intn(2)]
			}
			lineStatus := "F"
			if shipDate > currentDate {
				lineStatus = "O"
				allF = false
			} else {
				allO = false
			}
			totalPrice += extPrice * (1 + tax) * (1 - disc)

			l[0].AppendInt64(ok)
			l[1].AppendInt64(pk)
			l[2].AppendInt64(sk)
			l[3].AppendInt64(int64(ln))
			l[4].AppendFloat64(qty)
			l[5].AppendFloat64(extPrice)
			l[6].AppendFloat64(disc)
			l[7].AppendFloat64(tax)
			l[8].AppendString(returnFlag)
			l[9].AppendString(lineStatus)
			l[10].AppendInt64(shipDate)
			l[11].AppendInt64(commitDate)
			l[12].AppendInt64(receiptDate)
			l[13].AppendString(r.pick(instructions))
			l[14].AppendString(r.pick(shipModes))
			l[15].AppendString(r.comment(2, 6))
		}
		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		o[0].AppendInt64(ok)
		o[1].AppendInt64(ck)
		o[2].AppendString(status)
		o[3].AppendFloat64(totalPrice)
		o[4].AppendInt64(odate)
		o[5].AppendString(r.pick(priorities))
		o[6].AppendString(keyName("Clerk#", r.rangeI(1, scaled(1000, cfg.SF))))
		o[7].AppendInt64(0)
		o[8].AppendString(r.comment(5, 12))
	}
	if err := addTable(cat, "orders", ordersSchema, o); err != nil {
		return err
	}
	return addTable(cat, "lineitem", lineitemSchema, l)
}
