package platform

// Ledger is the billing subsystem's running totals. Every click charge is
// billed; charges on stolen payment instruments are lost — "fraudulent
// ads often are not billable (if, for instance, the advertiser is using a
// stolen payment instrument), and, instead, search engines lose
// legitimate revenue" (§1). The ledger is what makes the paper's "over
// ten million USD losses to Microsoft" quantifiable in the simulation.
// Per-account amounts are not kept here: an account's billed amount is
// its Spend and its uncollectable amount is Account.Uncollected.
type Ledger struct {
	totalBilled float64
	totalLost   float64
}

// Charge records a click charge. Charges against stolen instruments are
// uncollected revenue (they will never clear).
func (l *Ledger) Charge(amount float64, stolenInstrument bool) {
	l.totalBilled += amount
	if stolenInstrument {
		l.totalLost += amount
	}
}

// TotalBilled returns the platform-wide billed amount, summed in charge
// order.
func (l *Ledger) TotalBilled() float64 { return l.totalBilled }

// TotalLost returns the platform-wide uncollectable amount (the network's
// direct revenue loss to payment-instrument fraud), summed in charge
// order.
func (l *Ledger) TotalLost() float64 { return l.totalLost }
