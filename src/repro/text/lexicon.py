"""Domain synonym lexicon -- the offline stand-in for WordNet and for the
world knowledge a web-scale pre-trained language model carries.

The paper exploits two external knowledge sources that are unavailable in an
offline reproduction: WordNet (consulted by the S-MATCH baseline) and the
distributional semantics of BERT/FastText pre-trained on web corpora (which
let LSM match *discount* against *price_change_percentage*).  Both reduce to
the same primitive: knowing that two lexically different phrases mean the
same thing.  :class:`SynonymLexicon` packages that primitive:

* the S-MATCH baseline queries it directly (WordNet substitute),
* the corpus generator (:mod:`repro.text.corpus`) emits co-occurrence
  sentences from it so the from-scratch subword embeddings and MiniBERT
  *learn* the synonymy distributionally -- mirroring how the real FastText /
  BERT acquired it from the web,
* the customer-schema generators use it to *create* the
  semantically-equivalent-but-lexically-different matches that make the
  customer datasets hard (>30 % of matches per the paper, Section III).

The default lexicon covers the three domains of the evaluation datasets:
retail (customers A-E + ISS), movies (MovieLens-IMDB) and inpatient
psychiatric care (IPFQR).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .tokenize import normalize_identifier

#: Synonym groups. Each inner list is a set of mutually synonymous phrases;
#: phrases are lower-case, space-separated words.
DEFAULT_GROUPS: list[list[str]] = [
    # --- retail core concepts ------------------------------------------------
    ["item", "product", "article", "good", "merchandise", "sales item"],
    ["discount", "price change percentage", "markdown", "price reduction", "rebate"],
    ["quantity", "amount", "count", "units", "number of units"],
    ["order", "transaction", "purchase", "sales order"],
    ["order line", "transaction line", "line item", "order detail", "sales line"],
    ["customer", "client", "shopper", "buyer", "consumer", "patron"],
    ["price", "cost", "unit price", "rate"],
    ["full price", "suggested retail price", "list price", "retail price"],
    ["total", "subtotal", "sum", "aggregate amount"],
    ["store", "shop", "outlet", "retail location", "branch"],
    ["brand", "make", "label", "trademark"],
    ["vendor", "supplier", "provider", "seller"],
    ["shipment", "delivery", "dispatch", "consignment"],
    ["payment", "settlement", "remittance"],
    ["invoice", "bill", "statement"],
    ["receipt", "proof of purchase", "sales slip"],
    ["promotion", "campaign", "offer", "deal", "special"],
    ["coupon", "voucher", "promo code"],
    ["return", "refund", "reimbursement"],
    ["warehouse", "depot", "distribution center", "fulfillment center"],
    ["inventory", "stock", "on hand quantity", "stock level"],
    ["category", "class", "group", "segment", "department"],
    ["status", "state", "condition", "stage"],
    ["enabled", "active", "is active", "activation flag"],
    ["identifier", "id", "key", "code", "reference number"],
    ["european article number", "ean", "barcode", "international article number"],
    ["stock keeping unit", "sku", "item code", "product code"],
    ["universal product code", "upc", "product barcode"],
    ["name", "title", "label text", "designation"],
    ["description", "details", "summary", "notes", "remarks"],
    ["address", "location", "street address", "postal address"],
    ["city", "town", "municipality"],
    ["country", "nation", "country region"],
    ["postal code", "zip code", "zip", "postcode"],
    ["phone", "telephone", "phone number", "contact number"],
    ["email", "electronic mail", "email address", "mail address"],
    ["date", "day", "calendar date"],
    ["timestamp", "date time", "time", "datetime", "time stamp"],
    ["created date", "creation date", "date created", "record created timestamp"],
    ["modified date", "last updated", "update timestamp", "date modified"],
    ["start date", "effective date", "valid from", "begin date"],
    ["end date", "expiration date", "valid to", "expiry date"],
    ["birth date", "date of birth", "birthday"],
    ["age", "birth year", "years of age", "year of birth"],
    ["tax", "duty", "levy", "vat"],
    ["currency", "currency code", "monetary unit"],
    ["salary", "wage", "pay", "compensation"],
    ["employee", "staff member", "worker", "associate"],
    ["manager", "supervisor", "lead"],
    ["loyalty points", "reward points", "bonus points"],
    ["gender", "sex"],
    ["first name", "given name", "forename"],
    ["last name", "family name", "surname"],
    ["pick up", "pickup", "collection", "curbside pickup"],
    ["estimated time", "expected time", "promised time", "eta"],
    ["shipping cost", "freight charge", "delivery fee", "shipping fee"],
    ["balance", "outstanding amount", "remaining amount"],
    ["membership", "subscription", "enrollment"],
    ["size", "dimension", "measurement"],
    ["weight", "mass", "gross weight"],
    ["color", "colour", "shade"],
    ["image", "picture", "photo", "thumbnail"],
    ["url", "link", "web address", "uniform resource locator"],
    ["rating", "score", "grade", "evaluation"],
    ["review", "feedback", "comment", "testimonial"],
    ["channel", "sales channel", "medium"],
    ["region", "territory", "zone", "area"],
    ["season", "selling season", "fashion season"],
    ["margin", "profit margin", "markup"],
    ["revenue", "sales amount", "turnover", "proceeds"],
    ["budget", "allocation", "spending limit"],
    ["forecast", "projection", "prediction", "estimate"],
    ["unit of measure", "measurement unit", "uom"],
    ["batch", "lot", "production run"],
    ["expiration", "expiry", "best before"],
    ["aisle", "shelf location", "bin location"],
    ["register", "till", "checkout", "point of sale terminal"],
    ["cashier", "clerk", "sales assistant"],
    ["gift card", "gift certificate", "stored value card"],
    ["wish list", "wishlist", "saved items"],
    ["cart", "basket", "shopping cart", "shopping bag"],
    ["checkout date", "purchase date", "transaction date", "sale date"],
    ["due date", "deadline", "payment due"],
    ["priority", "rank", "precedence", "importance"],
    ["frequency", "cadence", "recurrence"],
    ["note", "annotation", "memo"],
    ["flag", "indicator", "marker", "boolean flag"],
    ["percentage", "percent", "proportion", "share"],
    ["minimum", "floor", "lower bound"],
    ["maximum", "ceiling", "upper bound", "cap"],
    ["average", "mean", "typical value"],
    ["sequence", "ordering", "position", "sort order"],
    ["version", "revision", "iteration"],
    ["account", "profile", "user record"],
    ["password", "passcode", "credential"],
    ["tier", "level", "grade band"],
    ["hierarchy", "taxonomy", "classification tree"],
    # --- movie domain (MovieLens-IMDB) ---------------------------------------
    ["movie", "film", "picture", "motion picture", "title record"],
    ["genre", "category of film", "film type"],
    ["actor", "performer", "cast member", "star"],
    ["director", "filmmaker", "film director"],
    ["release year", "year released", "premiere year", "production year"],
    ["runtime", "duration", "length in minutes", "running time"],
    ["user", "member", "viewer", "account holder"],
    ["tag", "keyword", "annotation label"],
    ["vote", "rating count", "number of votes"],
    ["episode", "installment", "chapter"],
    ["series", "show", "tv series", "season collection"],
    ["crew", "production staff", "film crew"],
    ["plot", "synopsis", "storyline", "plot summary"],
    # --- inpatient psychiatric / hospital domain (IPFQR) ----------------------
    ["hospital", "facility", "provider", "medical center"],
    ["patient", "inpatient", "admitted person"],
    ["measure", "metric", "quality measure", "indicator"],
    ["numerator", "measure numerator", "cases meeting criteria"],
    ["denominator", "measure denominator", "eligible cases"],
    ["state", "us state", "state code"],
    ["county", "parish", "borough"],
    ["admission", "intake", "hospitalization"],
    ["discharge", "release", "dismissal"],
    ["screening", "assessment", "evaluation procedure"],
    ["restraint", "physical restraint", "restraint use"],
    ["seclusion", "isolation", "seclusion use"],
    ["follow up", "followup", "aftercare", "post discharge care"],
    ["medication", "drug", "pharmaceutical", "prescription"],
    ["footnote", "annotation note", "qualifier note"],
    ["quarter", "reporting quarter", "fiscal quarter"],
    ["sample", "sample size", "surveyed population"],
]


class SynonymLexicon:
    """A set of synonym groups over normalised phrases.

    Phrases are normalised with :func:`normalize_identifier` (lower-case,
    space-separated) so ``"PriceChangePercentage"`` and
    ``"price_change_percentage"`` hit the same group.
    """

    def __init__(self, groups: Iterable[Sequence[str]] = DEFAULT_GROUPS) -> None:
        self.groups: list[list[str]] = []
        self._group_of: dict[str, int] = {}
        for group in groups:
            normalised = [normalize_identifier(term) for term in group]
            index = len(self.groups)
            self.groups.append(normalised)
            for term in normalised:
                # A phrase may appear in several groups (e.g. "amount"); the
                # first group wins for group_of, but synonyms() unions all.
                self._group_of.setdefault(term, index)
        self._all_groups_of: dict[str, list[int]] = {}
        for index, group in enumerate(self.groups):
            for term in group:
                self._all_groups_of.setdefault(term, []).append(index)

    def __contains__(self, phrase: str) -> bool:
        return normalize_identifier(phrase) in self._group_of

    def __len__(self) -> int:
        return len(self.groups)

    def synonyms(self, phrase: str) -> set[str]:
        """All phrases synonymous with ``phrase`` (excluding itself)."""
        key = normalize_identifier(phrase)
        result: set[str] = set()
        for index in self._all_groups_of.get(key, []):
            result.update(self.groups[index])
        result.discard(key)
        return result

    def are_synonyms(self, phrase_a: str, phrase_b: str) -> bool:
        """Whether the two phrases share a synonym group."""
        key_a = normalize_identifier(phrase_a)
        key_b = normalize_identifier(phrase_b)
        if key_a == key_b:
            return True
        groups_a = set(self._all_groups_of.get(key_a, []))
        if not groups_a:
            return False
        return any(index in groups_a for index in self._all_groups_of.get(key_b, []))

    def random_synonym(self, phrase: str, rng: np.random.Generator) -> str | None:
        """A uniformly random synonym of ``phrase``, or None if it has none."""
        options = sorted(self.synonyms(phrase))
        if not options:
            return None
        return options[int(rng.integers(len(options)))]

    def iter_synonym_pairs(self) -> Iterator[tuple[str, str]]:
        """All unordered within-group phrase pairs (corpus-generation feed)."""
        for group in self.groups:
            for i, term_a in enumerate(group):
                for term_b in group[i + 1 :]:
                    yield term_a, term_b

    def vocabulary(self) -> set[str]:
        """Every individual word appearing in any phrase."""
        vocab: set[str] = set()
        for group in self.groups:
            for phrase in group:
                vocab.update(phrase.split())
        return vocab


#: Curated common-English synonym groups: the stand-in for what WordNet and
#: off-the-shelf FastText genuinely know.  Everything else in
#: ``DEFAULT_GROUPS`` is treated as vertical-specific phrasing that only
#: LSM's per-vertical pre-training captures (Section III: "leverage
#: pre-training techniques to create a model that better understands the
#: domain").
GENERIC_GROUPS: list[list[str]] = [
    ["customer", "client", "buyer", "shopper", "consumer", "patron"],
    ["item", "product", "article", "merchandise"],
    ["store", "shop", "outlet", "branch"],
    ["price", "cost", "rate"],
    ["amount", "quantity", "count"],
    ["name", "title", "designation"],
    ["description", "summary", "notes", "remarks", "details"],
    ["status", "state", "condition"],
    ["vendor", "supplier", "seller", "provider"],
    ["employee", "worker"],
    ["manager", "supervisor"],
    ["city", "town"],
    ["country", "nation"],
    ["phone", "telephone"],
    ["movie", "film"],
    ["actor", "performer"],
    ["hospital", "facility"],
    ["salary", "wage", "pay"],
    ["gender", "sex"],
    ["color", "colour"],
    ["image", "picture", "photo"],
    ["discount", "rebate", "markdown"],
]


def generic_groups() -> list[list[str]]:
    """The curated generic (WordNet-like) synonym groups for baselines."""
    return [list(group) for group in GENERIC_GROUPS]


_DEFAULT: SynonymLexicon | None = None
_GENERIC: SynonymLexicon | None = None


def default_lexicon() -> SynonymLexicon:
    """Process-wide shared default lexicon (built once, read-only by convention)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SynonymLexicon()
    return _DEFAULT


def generic_lexicon() -> SynonymLexicon:
    """The generic (single-word) lexicon used by the baselines."""
    global _GENERIC
    if _GENERIC is None:
        _GENERIC = SynonymLexicon(generic_groups())
    return _GENERIC
