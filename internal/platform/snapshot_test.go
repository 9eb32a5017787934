package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// snapshotFixture is a platform that exercises every snapshot column:
// several accounts, ads with batched and single bids of all match types,
// equal-score ties, a retired ad (slot swap), a shut-down account (ads
// kept, bids released), a second market, and both ledger totals.
func snapshotFixture(t testing.TB) *Platform {
	t.Helper()
	p := New()
	var ads []*Ad
	for i := 0; i < 4; i++ {
		a := p.Register(RegistrationRequest{
			At:              simclock.StampAt(0, 0.1),
			Country:         market.US,
			Fraud:           i == 3,
			PrimaryVertical: verticals.Downloads,
			StolenPayment:   i == 3,
		})
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			target := market.US
			if j == 2 {
				target = market.GB
			}
			ad, err := p.CreateAd(a.ID, verticals.Downloads, target,
				adcopy.Creative{Title: "t", DisplayURL: "www.x.com"}, 0.5, simclock.StampAt(1, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			p.AddBidsBatch(ad, []KeywordBid{
				{KeywordID: 1, Cluster: 0, Match: MatchExact, MaxBid: 1},
				{KeywordID: 1, Cluster: 0, Match: MatchPhrase, MaxBid: 1},
				{KeywordID: 2 + j, Cluster: 1, Match: MatchBroad, MaxBid: 0.5 + float64(i)},
			}, simclock.StampAt(1, 0.6))
			if err := p.AddBid(ad, KeywordBid{KeywordID: 7, Cluster: 2, Match: MatchExact, MaxBid: 2}, simclock.StampAt(2, 0)); err != nil {
				t.Fatal(err)
			}
			ads = append(ads, ad)
		}
	}
	p.ModifyBid(ads[1], ads[1].Bids[0], 1.1)
	p.RetireAd(ads[3])
	if err := p.Shutdown(2, simclock.StampAt(3, 0), "test"); err != nil {
		t.Fatal(err)
	}
	p.Bill(0, 1.5)
	p.Bill(3, 0.7) // stolen payment: lands in uncollected
	return p
}

// liveColumns is what a checkpoint save writes: both halves of the live
// writer, in wire order.
func liveColumns(p *Platform, sc *ColumnScratch) []byte {
	return p.AppendIndex(p.AppendTables(nil, sc), sc)
}

// TestSnapshotFieldsComplete pins the codec to the structs: with every
// field of a Snapshot, of its accounts and of its ads set, the reference
// writer and DecodeColumns round-trip it unchanged. A field added to any
// of them but not to the codec comes back zero. The fields the decoder
// checks against the rest of the tables (IDs, owners, the status, the
// market of an ad the index files) keep the fixture's values.
func TestSnapshotFieldsComplete(t *testing.T) {
	st := snapshotFixture(t).Snapshot()
	a := &st.Accounts[0]
	keepAcct := *a
	*a = Account{}
	fillFields(t, reflect.ValueOf(a).Elem(), "Ads")
	a.ID, a.Status = keepAcct.ID, keepAcct.Status
	ad := &st.Ads[0]
	keepAd := *ad
	*ad = Ad{}
	fillFields(t, reflect.ValueOf(ad).Elem(), "Bids")
	ad.ID, ad.Account, ad.Vertical, ad.Target = keepAd.ID, keepAd.Account, keepAd.Vertical, keepAd.Target
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture leaves Snapshot.%s zero", v.Type().Field(i).Name)
		}
	}
	p, err := DecodeColumns(st.AppendColumns(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Snapshot(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v\n got %+v\nwant %+v", got.Accounts[0], st.Accounts[0], got.Ads[0], st.Ads[0])
	}
}

// fillFields sets every field of the struct v, recursively, to a
// non-zero value, except the named child slice.
func fillFields(t *testing.T, v reflect.Value, skip string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if v.Type().Field(i).Name == skip {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString("x" + v.Type().Field(i).Name)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(int64(-3 - i))
		case reflect.Uint8:
			f.SetUint(uint64(200 + i))
		case reflect.Float64:
			f.SetFloat(0.5 + float64(i))
		case reflect.Struct:
			fillFields(t, f, "")
		default:
			t.Fatalf("fillFields: field %s has kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestMinRowSizes: the per-row minimums DecodeColumns bounds its counts
// by are the encoded sizes of empty rows.
func TestMinRowSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  int
		want int
	}{
		{"account", len(appendAccount(nil, &Account{})), minAccountRow},
		{"ad", len(appendAd(nil, &Ad{})), minAdRow},
		{"index", len(appendIndexEntry(nil, IndexEntry{})), minIndexRow},
	} {
		if tc.got != tc.want {
			t.Errorf("empty %s row is %d bytes, min constant says %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestLiveColumnsMatchReference: the live writer's bytes are the
// reference writer's, on the fixture and on its restored copy, and again
// through a scratch that has already been used.
func TestLiveColumnsMatchReference(t *testing.T) {
	p := snapshotFixture(t)
	var sc ColumnScratch
	want := p.Snapshot().AppendColumns(nil)
	for i := 0; i < 2; i++ {
		if got := liveColumns(p, &sc); !bytes.Equal(got, want) {
			t.Fatalf("write %d: live columns (%d bytes) differ from the reference (%d bytes)", i, len(got), len(want))
		}
	}
	q, err := DecodeColumns(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveColumns(q, &sc); !bytes.Equal(got, want) {
		t.Fatal("restored platform writes different columns")
	}
}

// layoutPins is the SHA-256 of the reference writer's bytes for
// snapshotFixture under each format version. An entry is never edited:
// a layout change bumps ColumnsVersion and adds one.
var layoutPins = map[int]string{
	4: "1d05cdc917fb69f27eebfc01fc1ee787ee68652f89d487fc2c4f8a1a37a227d0",
	5: "d11cd06486fe33d9ef9edbc642cb75176325f91f712004eeb4fdbaea547152cb",
}

// TestColumnLayoutPinned: the column layout cannot change without the
// checkpoint version byte, or an older binary would misread the new
// files instead of refusing them.
func TestColumnLayoutPinned(t *testing.T) {
	sum := sha256.Sum256(snapshotFixture(t).Snapshot().AppendColumns(nil))
	if got := hex.EncodeToString(sum[:]); got != layoutPins[ColumnsVersion] {
		t.Fatalf("version %d fixture columns hash to %s, pinned %q: a layout change needs a new ColumnsVersion and pin (a fixture change, a new pin)",
			ColumnsVersion, got, layoutPins[ColumnsVersion])
	}
}

// TestDecodeColumnsRejectsDamage: every strict prefix of a valid
// encoding, a trailing byte, an out-of-range value and a row count larger
// than the bytes left are all errors.
func TestDecodeColumnsRejectsDamage(t *testing.T) {
	valid := snapshotFixture(t).Snapshot().AppendColumns(nil)
	for n := range valid {
		if _, err := DecodeColumns(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(valid))
		}
	}
	if _, err := DecodeColumns(append(bytes.Clone(valid), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := DecodeColumns(huge); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("huge account count: %v", err)
	}
	// An empty snapshot starts with the account count and NextAdID; swap
	// NextAdID for one past int32.
	empty := (&Snapshot{}).AppendColumns(nil)
	wide := append(binary.AppendVarint(empty[:1:1], 1<<40), empty[2:]...)
	if _, err := DecodeColumns(wide); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("int32 overflow: %v", err)
	}
}

// TestSnapshotRoundTripByteEqual: encode → DecodeColumns → Snapshot →
// encode reproduces the bytes, and the restored platform serves the same
// posting lists in the same order.
func TestSnapshotRoundTripByteEqual(t *testing.T) {
	p := snapshotFixture(t)
	first := p.Snapshot().AppendColumns(nil)
	if again := p.Snapshot().AppendColumns(nil); !bytes.Equal(first, again) {
		t.Fatal("two snapshots of one state encode differently")
	}

	q, err := DecodeColumns(first)
	if err != nil {
		t.Fatal(err)
	}
	if second := q.Snapshot().AppendColumns(nil); !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the encoding: %d bytes -> %d bytes", len(first), len(second))
	}

	if q.Index().Len() != p.Index().Len() || q.LiveAds() != p.LiveAds() || q.NumAccounts() != p.NumAccounts() {
		t.Fatalf("restored platform has %d refs / %d live ads / %d accounts, want %d / %d / %d",
			q.Index().Len(), q.LiveAds(), q.NumAccounts(), p.Index().Len(), p.LiveAds(), p.NumAccounts())
	}
	for _, c := range []market.Country{market.US, market.GB} {
		for kw := 0; kw < 8; kw++ {
			want := eligible(p.Index(), verticals.Downloads, c, kw, 1, FormBare, allLive(p))
			got := eligible(q.Index(), verticals.Downloads, c, kw, 1, FormBare, allLive(q))
			if len(got) != len(want) {
				t.Fatalf("%s kw %d: %d eligible, want %d", c, kw, len(got), len(want))
			}
			for i := range want {
				if got[i].Ad.ID != want[i].Ad.ID || *got[i].Bid != *want[i].Bid {
					t.Fatalf("%s kw %d slot %d: ad %d bid %+v, want ad %d bid %+v",
						c, kw, i, got[i].Ad.ID, *got[i].Bid, want[i].Ad.ID, *want[i].Bid)
				}
			}
		}
	}
	// The restored index points at the restored ads' own bids, not copies.
	ad := q.MustAccount(0).Ads[0]
	found := false
	for _, ref := range eligible(q.Index(), verticals.Downloads, ad.Target, ad.Bids[0].KeywordID, 0, FormBare, allLive(q)) {
		found = found || (ref.Ad == ad && ref.Bid == ad.Bids[0])
	}
	if !found {
		t.Fatal("restored index does not hold the restored ad's bid")
	}
}

// adOf is the row of st's ad id.
func adOf(st *Snapshot, id int32) *Ad {
	for i := range st.Ads {
		if int32(st.Ads[i].ID) == id {
			return &st.Ads[i]
		}
	}
	panic("no such ad")
}

// listOf is the position in st.Index of the first exact or phrase list
// under keyword kw.
func listOf(st *Snapshot, kw int32) int {
	for i, e := range st.Index {
		if e.Kw == kw && !e.Broad {
			return i
		}
	}
	panic("no such list")
}

// refTwice points a reference at the bid its list's previous reference
// names, where both are to one ad: the bid is then filed twice.
func refTwice(st *Snapshot) {
	for i := 1; i < len(st.RefAd); i++ {
		if st.RefAd[i] == st.RefAd[i-1] {
			st.RefBid[i] = st.RefBid[i-1]
			return
		}
	}
	panic("no list holds two bids of one ad")
}

// TestFromSnapshotRejectsInconsistentColumns: every way the flat layout
// can disagree with itself, and every reference the live index would not
// file where the columns put it, is a DecodeColumns error, never a panic
// or a silently misattributed bid.
func TestFromSnapshotRejectsInconsistentColumns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(st *Snapshot)
		want   string
	}{
		{"short ad counts", func(st *Snapshot) { st.AdCount = st.AdCount[1:] }, "ad counts for"},
		{"short bid counts", func(st *Snapshot) { st.BidCount = st.BidCount[1:] }, "bid counts for"},
		{"negative ad count", func(st *Snapshot) { st.AdCount[0] = -1 }, "negative"},
		{"negative bid count", func(st *Snapshot) { st.BidCount[0] = -4 }, "negative"},
		{"ad counts oversum", func(st *Snapshot) { st.AdCount[0]++ }, "ad counts sum"},
		{"ad counts undersum", func(st *Snapshot) { st.AdCount[1]-- }, "ad counts sum"},
		{"bid counts oversum", func(st *Snapshot) { st.BidCount[0] += 2 }, "counts before it sum"},
		{"short keyword column", func(st *Snapshot) { st.BidKeyword = st.BidKeyword[1:] }, "keyword column"},
		{"short cluster column", func(st *Snapshot) { st.BidCluster = st.BidCluster[:0] }, "cluster column"},
		{"short match column", func(st *Snapshot) { st.BidMatch = st.BidMatch[1:] }, "match column"},
		{"long max column", func(st *Snapshot) { st.BidMax = append(st.BidMax, 1) }, "max bid column"},
		{"short created column", func(st *Snapshot) { st.BidCreated = nil }, "created column"},
		{"bids moved between ads", func(st *Snapshot) { st.BidCount[0]--; st.BidCount[1]++ }, "filed under"},
		{"ad under the wrong account", func(st *Snapshot) { st.AdCount[0]--; st.AdCount[1]++ }, "carries account"},
		{"account ID out of place", func(st *Snapshot) { st.Accounts[1].ID = 3 }, "carries ID"},
		{"negative list length", func(st *Snapshot) { st.Index[0].Refs = -1 }, "negative length"},
		{"list lengths oversum", func(st *Snapshot) { st.Index[0].Refs++ }, "ref ad column"},
		{"short ref ad column", func(st *Snapshot) { st.RefAd = st.RefAd[1:] }, "ref ad column"},
		{"short ref bid column", func(st *Snapshot) { st.RefBid = st.RefBid[1:] }, "ref bid column"},
		{"unknown ad", func(st *Snapshot) { st.RefAd[0] = 9999 }, "ad 9999, which is not there"},
		{"bid position out of range", func(st *Snapshot) { st.RefBid[0] = 99 }, "references bid"},
		{"negative bid position", func(st *Snapshot) { st.RefBid[0] = -1 }, "references bid"},

		// Bytes no enum value has.
		{"match byte above broad", func(st *Snapshot) { st.BidMatch[0] = 7 }, "match byte 7"},
		{"status byte above closed", func(st *Snapshot) { st.Accounts[0].Status = StatusClosed + 1 }, "status byte 5"},

		// IDs the platform would not have issued.
		{"negative next ad ID", func(st *Snapshot) { st.NextAdID = -1 }, "next ad ID -1"},
		{"ad ID issued again", func(st *Snapshot) { st.NextAdID = 11 }, "ad ID 11 outside"},
		{"ad ID twice", func(st *Snapshot) { adOf(st, 6).ID = 9 }, "ad ID 9 twice"}, // no list files ad 6, a shut-down account's

		// References the live index would file elsewhere, or not at all.
		{"paused ad filed", func(st *Snapshot) { adOf(st, st.RefAd[0]).Active = false }, "paused ad"},
		{"closed account's ad filed", func(st *Snapshot) {
			st.Accounts[adOf(st, st.RefAd[0]).Account].Status = StatusClosed
		}, "closed account"},
		{"list of another vertical", func(st *Snapshot) { st.Index[0].Vertical = verticals.Luxury }, "filed under luxury/"},
		{"list of another market", func(st *Snapshot) { st.Index[0].Country = market.DE }, "/DE"},
		{"exact bids in a broad list", func(st *Snapshot) { st.Index[listOf(st, 7)].Broad = true }, "filed under list 7 (broad true)"},
		{"bids under another keyword", func(st *Snapshot) { st.Index[listOf(st, 7)].Kw = 8 }, "filed under list 8"},
		{"bid filed twice", refTwice, "referenced twice"},
		{"serving bid not filed", func(st *Snapshot) {
			n := st.Index[0].Refs - 1
			st.Index[0].Refs = n
			st.RefAd = slices.Delete(st.RefAd, int(n), int(n)+1)
			st.RefBid = slices.Delete(st.RefBid, int(n), int(n)+1)
		}, "the serving ads hold"},
		{"list key twice", func(st *Snapshot) {
			refs := st.Index[1].Refs
			st.Index[1] = st.Index[0]
			st.Index[1].Refs = refs
		}, "(broad false) twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := snapshotFixture(t).Snapshot()
			tc.break_(st)
			p, err := DecodeColumns(st.AppendColumns(nil))
			if err == nil {
				t.Fatalf("accepted (platform with %d accounts)", p.NumAccounts())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected with %q, want mention of %q", err, tc.want)
			}
		})
	}
}

// FuzzDecodeColumns calls the decoder directly, with no recover guard
// around it: any panic fails the fuzzer. What decodes re-encodes by the
// reference writer to a fixed point: decode, re-encode, decode the result
// and re-encode it again, and the two encodings are the same bytes.
func FuzzDecodeColumns(f *testing.F) {
	p := snapshotFixture(f)
	valid := p.Snapshot().AppendColumns(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	for _, i := range []int{1, len(valid) / 3, len(valid) - 9} {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	for _, vandalize := range []func(*Snapshot){
		func(st *Snapshot) { st.BidMax = st.BidMax[1:] },
		func(st *Snapshot) { st.AdCount[0] += 3 },
		func(st *Snapshot) { st.RefBid[0] = 1 << 20 },
		func(st *Snapshot) { st.RefAd[0] = -7 },
		func(st *Snapshot) { st.BidMatch[0] = 7 },
		func(st *Snapshot) { st.Index[0].Country = market.DE },
	} {
		st := p.Snapshot()
		vandalize(st)
		f.Add(st.AppendColumns(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeColumns(data)
		if err != nil {
			return
		}
		once := p.Snapshot().AppendColumns(nil)
		q, err := DecodeColumns(once)
		if err != nil {
			t.Fatalf("re-encoded columns do not decode: %v", err)
		}
		if !bytes.Equal(q.Snapshot().AppendColumns(nil), once) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
