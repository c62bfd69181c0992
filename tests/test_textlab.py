import json
import math
import sys
import warnings
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stancelab import textlab
from stancelab.textlab import (
    TokenizedDoc,
    default_stopwords,
    lda_fit,
    load_stopwords,
    tokenize,
    tokenize_text_both,
    top_words,
    unigram_frequencies,
    write_frequency_csv,
    write_topics_json,
)
from util import (
    make_corpus,
    make_tweet,
    oracle_lda_fit,
    oracle_sweep,
    oracle_tokenize_text,
    oracle_tokenize_text_both,
    oracle_top_words,
    oracle_unigram_frequencies,
)


def doc(doc_id, *tokens):
    return TokenizedDoc(doc_id=doc_id, tokens=tuple(tokens), hashtags_included=False)


class TestTokenize:
    def test_url_and_case_and_stopwords(self):
        tokens = tokenize_text_both("We need climate ACTION now! http://x.co", frozenset({"we", "now"}))[False]
        assert tokens == ("need", "climate", "action")

    def test_all_stopwords_gives_empty(self):
        assert tokenize_text_both("We now", frozenset({"we", "now"})) == ((), ())

    def test_hashtags_kept_as_atomic_tokens(self):
        stops = default_stopwords()
        tokens = tokenize_text_both("#ClimateHoax is a scam", stops)[True]
        assert tokens == ("climatehoax", "scam")

    def test_hashtags_dropped_by_default(self):
        stops = default_stopwords()
        assert tokenize_text_both("#ClimateHoax is a scam", stops)[False] == ("scam",)

    def test_mentions_stripped(self):
        assert tokenize_text_both("@alice says hello", frozenset()) == (("says", "hello"),) * 2

    def test_short_tokens_dropped(self):
        assert tokenize_text_both("a b cd", frozenset()) == (("cd",),) * 2

    def test_hashtag_with_underscore_stays_atomic(self):
        tokens = tokenize_text_both("#climate_hoax talk", frozenset())[True]
        assert tokens == ("climate_hoax", "talk")

    def test_corpus_tokenize_keeps_order_and_ids(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", text="solar power wins"),
            make_tweet("t2", "u2", text=""),
        )
        docs, _ = tokenize(corpus.tweets, frozenset())
        assert [d.doc_id for d in docs] == ["t1", "t2"]
        assert docs[0].tokens == ("solar", "power", "wins")
        assert docs[1].tokens == ()

    def test_pool_by_user_concatenates_documents(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", text="solar power"),
            make_tweet("t2", "u2", text="coal lobby"),
            make_tweet("t3", "u1", text="wind farms"),
        )
        docs, _ = tokenize(corpus.tweets, frozenset(), pool_by_user=True)
        by_id = {d.doc_id: d.tokens for d in docs}
        assert by_id == {"u1": ("solar", "power", "wind", "farms"), "u2": ("coal", "lobby")}


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# comment\nThe\nand\n\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "and"})


def test_default_stopwords_cover_common_words():
    stops = default_stopwords()
    assert {"a", "an", "the", "is", "we", "now"} <= stops


class TestFrequencies:
    def test_tie_broken_lexicographically(self):
        docs = [doc("d1", "a", "b", "a"), doc("d2", "b")]
        assert unigram_frequencies(docs, 10) == [("a", 2), ("b", 2)]

    def test_empty(self):
        assert unigram_frequencies([], 5) == []

    def test_top_n_truncates(self):
        assert unigram_frequencies([doc("d1", "x", "x", "y")], 1) == [("x", 2)]

    def test_top_n_validation(self):
        with pytest.raises(ValueError):
            unigram_frequencies([], 0)

    @given(
        st.lists(st.lists(st.sampled_from(("a", "b", "B", "ab", "é", "e\u0301", "z")), max_size=8), max_size=6),
        st.integers(1, 10),
    )
    @example([["a", "b"], ["b", "a", "z"]], 10)  # ties, and top_n above the vocabulary
    def test_matches_the_dict_counting_oracle(self, token_lists, top_n):
        docs = [doc(f"d{i}", *tokens) for i, tokens in enumerate(token_lists)]
        assert unigram_frequencies(docs, top_n) == oracle_unigram_frequencies(docs, top_n)


class TestLdaFit:
    def disjoint_docs(self, rng, n_docs=20, doc_len=12):
        vocab_a = [f"alpha{i}" for i in range(10)]
        vocab_b = [f"beta{i}" for i in range(10)]
        docs = []
        for i in range(n_docs):
            vocab = vocab_a if i % 2 == 0 else vocab_b
            words = [vocab[j] for j in rng.integers(0, len(vocab), size=doc_len)]
            docs.append(doc(f"d{i}", *words))
        return docs, vocab_a, vocab_b

    def test_single_doc_single_topic(self):
        model = lda_fit([doc("d1", "w")], k=1, alpha=0.5, beta=0.01, iterations=10, seed=0)
        assert model.phi.shape == (1, 1)
        assert model.phi[0, 0] == 1.0
        assert model.phi[0, 0] >= (1 + model.beta) / (1 + len(model.vocab) * model.beta)
        assert np.array_equal(model.theta, np.array([[1.0]]))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(0)
        docs, _, _ = self.disjoint_docs(rng)
        m1 = lda_fit(docs, k=2, alpha=0.5, iterations=30, seed=42)
        m2 = lda_fit(docs, k=2, alpha=0.5, iterations=30, seed=42)
        assert np.array_equal(m1.phi, m2.phi)
        assert np.array_equal(m1.theta, m2.theta)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        docs, _, _ = self.disjoint_docs(rng)
        model = lda_fit(docs, k=3, iterations=20, seed=1)
        assert np.allclose(model.phi.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.allclose(model.theta.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_disjoint_vocabularies_separate(self):
        rng = np.random.default_rng(3)
        docs, vocab_a, vocab_b = self.disjoint_docs(rng, n_docs=30)
        model = lda_fit(docs, k=2, alpha=0.5, beta=0.01, iterations=100, seed=5)
        for topic in range(2):
            top = [w for w, _ in top_words(model, topic, 2)]
            assert set(top) <= set(vocab_a) or set(top) <= set(vocab_b)

    def test_empty_docs_dropped_and_all_empty_rejected(self):
        with pytest.raises(ValueError, match="usable"):
            lda_fit([doc("d1")], k=2)
        model = lda_fit([doc("d1"), doc("d2", "word", "word")], k=1, iterations=5, seed=0)
        assert model.doc_ids == ("d2",)

    def test_k_above_vocabulary_warns(self):
        with pytest.warns(UserWarning, match="vocabulary"):
            lda_fit([doc("d1", "only")], k=3, iterations=2, seed=0)

    @pytest.mark.parametrize("prior", [{"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"beta": -0.5}, {"alpha": math.inf}, {"beta": math.inf}])
    def test_nonpositive_priors_rejected(self, prior):
        with pytest.raises(ValueError, match="must be > 0"):
            lda_fit([doc("d1", "w", "v")], k=1, iterations=1, seed=0, **prior)

    def test_beta_whose_vocabulary_product_overflows_is_rejected(self):
        # n_vocab * beta is inf: every phi weight would be 0 and each row sum 0.0
        with pytest.raises(ValueError, match="overflow"):
            lda_fit([doc("d1", "u", "v", "w")], k=1, beta=1e308, iterations=0, seed=0)

    def test_alpha_whose_topic_product_overflows_is_rejected(self):
        # k * alpha is inf: every theta row would sum to 0.0
        with pytest.raises(ValueError, match="overflow"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lda_fit([doc("d1", "u", "v", "w")], k=3, alpha=1e308, iterations=0, seed=0)

    def test_priors_whose_weight_product_overflows_are_rejected(self):
        # each is finite times k or n_vocab, but (n_dt + alpha) * (n_tw + beta) is not
        with pytest.raises(ValueError, match="overflow"):
            lda_fit([doc("d1", "u", "v", "w")], k=1, alpha=1e200, beta=1e200, iterations=2, seed=0)

    def test_large_finite_priors_still_fit(self):
        model = lda_fit([doc("d1", "u", "v", "w")], k=1, alpha=1e100, beta=1e100, iterations=2, seed=0)
        assert np.allclose(model.phi.sum(axis=1), 1.0) and np.allclose(model.theta.sum(axis=1), 1.0)

    def test_alpha_default_is_50_over_k(self):
        with pytest.warns(UserWarning):
            model = lda_fit([doc("d1", "w", "v")], k=5, iterations=1, seed=0)
        assert model.alpha == 10.0


class TestTopWords:
    def test_single_word_model(self):
        model = lda_fit([doc("d1", "w")], k=1, iterations=5, seed=0)
        assert [w for w, _ in top_words(model, 0, 3)] == ["w"]

    def test_out_of_range_topic(self):
        model = lda_fit([doc("d1", "w")], k=1, iterations=1, seed=0)
        with pytest.raises(ValueError):
            top_words(model, 1, 3)

    def test_n_larger_than_vocab_returns_everything(self):
        model = lda_fit([doc("d1", "w", "v", "u")], k=1, iterations=5, seed=0)
        assert len(top_words(model, 0, 99)) == 3

    def test_exclusion_filter(self):
        model = lda_fit([doc("d1", "tag", "tag", "word")], k=1, iterations=5, seed=0)
        words = [w for w, _ in top_words(model, 0, 5, exclude={"tag"})]
        assert words == ["word"]

    def test_descending_with_lexicographic_ties(self):
        model = lda_fit([doc("d1", "b", "a")], k=1, iterations=5, seed=0)
        assert [w for w, _ in top_words(model, 0, 2)] == ["a", "b"]


def test_frequency_csv(tmp_path):
    path = tmp_path / "freq.csv"
    write_frequency_csv([("climate", 3), ("act", 1)], path)
    assert path.read_text(encoding="utf-8") == "term,count\nclimate,3\nact,1\n"


def test_topics_json_schema(tmp_path):
    model = lda_fit([doc("d1", "w", "v")], k=2, iterations=5, seed=0)
    path = tmp_path / "topics.json"
    write_topics_json(model, path, top_n=2)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert [entry["topic_id"] for entry in payload] == [0, 1]
    for entry in payload:
        for item in entry["top_words"]:
            assert set(item) == {"word", "prob"}


STOPS = frozenset({"the", "and", "is", "hoax", "x_y"})
pieces = st.one_of(
    st.sampled_from(
        (
            "the", "And", "is", "a", "b", "Z", "ok", "Climate", "hoax", "x_y", "naïve", "STRASSE", "straße",
            "http://x.co/a#tag", "https://t.co/xyz", "WWW.example.org/#x", "www.", "@alice", "@bob_2#tag",
            "#Climate_Hoax", "#hoax", "#a", "##Tag", "#", "#_", "#x_y", "#ok#ok", "e-mail", "it's", "1", "42",
        )
    ),
    st.text(max_size=6),
)
texts = st.lists(st.tuples(pieces, st.sampled_from((" ", "", ",", "\n", "#", "@"))), max_size=12).map(
    lambda parts: "".join(p + sep for p, sep in parts)
)


@given(texts)
@example("#ClimateHoax is a scam http://x.co @al #climate_hoax talk #hoax b")
def test_one_pass_gives_both_token_sequences(text):
    words, tagged = tokenize_text_both(text, STOPS)
    assert words == oracle_tokenize_text(text, STOPS, False)
    assert tagged == oracle_tokenize_text(text, STOPS, True)


# Pieces where one scan could part from the passes: URLs inside words and
# tags, mentions and tags glued to words, underscores, and characters whose
# case folding changes the text's length or its word characters.
scan_pieces = st.one_of(
    st.sampled_from(
        (
            "x@www.a.com", "ab@www.a.com", "abchttp://t.co/x", "#tagwww.a.b", "#tag@www.x", "@uhttp://a",
            "@me#tag", "#tag@me", "a#b", "ab#cd", "cd@ef", "@a_b", "#a_b", "a_b", "_ab", "ab_", "__", "#__",
            "HTTPS://T.CO/X", "Www.X.org", "www.", "://x", "http:/x", "The", "AND", "Hoax", "x_y", "#x_y", "#The",
            "ß", "straße", "#straße", "İstanbul", "#İ", "@İ", "\u0345", "a\u0345b", "#\u0345", "ΐ", "ﬁne",
        )
    ),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=6),
)
scan_texts = st.lists(st.tuples(scan_pieces, st.sampled_from((" ", "", ".", "#", "@", "/"))), max_size=12).map(
    lambda parts: "".join(p + sep for p, sep in parts)
)


@given(st.one_of(scan_texts, texts))
@example("x@www.a.com and #tag@www.b.com, abchttp://t.co/x @u#tag")
@example("\u0130stanbul #\u0130 a\u0345b stra\u00dfe")
def test_tokenize_text_both_matches_the_pass_by_pass_oracle(text):
    assert tokenize_text_both(text, STOPS) == oracle_tokenize_text_both(text, STOPS)


@given(
    st.lists(st.tuples(st.sampled_from("uvw"), texts), max_size=8),
    st.booleans(),
)
def test_tokenize_views_pool_in_first_author_order(tweets, pool_by_user):
    corpus = make_corpus(*(make_tweet(f"t{i}", user, text=text) for i, (user, text) in enumerate(tweets)))
    words, tagged = tokenize(corpus.tweets, STOPS, pool_by_user=pool_by_user)
    expected: dict[str, tuple[list, list]] = {}
    for i, (user, text) in enumerate(tweets):
        views = expected.setdefault(user if pool_by_user else f"t{i}", ([], []))
        for kept in (False, True):
            views[kept].extend(oracle_tokenize_text(text, STOPS, kept))
    for kept, docs in ((False, words), (True, tagged)):
        assert [(d.doc_id, d.tokens, d.hashtags_included) for d in docs] == [
            (doc_id, tuple(views[kept]), kept) for doc_id, views in expected.items()
        ]


@given(st.lists(texts, min_size=1, max_size=3), st.lists(st.integers(0, 2), max_size=10))
def test_tokenize_repeated_texts_gives_the_docs_of_one_call_per_tweet(distinct, picks):
    """Each distinct text is tokenized once; a repeat gets the same docs."""
    chosen = [distinct[i % len(distinct)] for i in picks]
    corpus = make_corpus(*(make_tweet(f"t{i}", "u", text=text) for i, text in enumerate(chosen)))
    with patch.object(textlab, "tokenize_text_both", wraps=textlab.tokenize_text_both) as spy:
        words, tagged = tokenize(corpus.tweets, STOPS)
    assert spy.call_count == len(set(chosen))
    for kept, docs in ((False, words), (True, tagged)):
        assert docs == [
            TokenizedDoc(doc_id=f"t{i}", tokens=tokenize_text_both(text, STOPS)[kept], hashtags_included=kept)
            for i, text in enumerate(chosen)
        ]


@pytest.mark.parametrize("seed", [0, 1, 2024])
@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_vector_uniforms_equal_scalar_draws(seed, n):
    """lda_fit draws a sweep's uniforms as one vector; the bits rest on this."""
    scalar = np.random.default_rng(seed)
    assert np.array_equal(np.random.default_rng(seed).random(n), np.array([scalar.random() for _ in range(n)]))


@contextmanager
def tracing_sweep_draws(k, draws):
    """Append ``([s0, ..., s{k-1}], x)`` to ``draws`` for every token update
    of the generated sweep for ``k``: a line tracer over the function named
    ``<gibbs sweep k=...>`` reads the cumulative weights and the search point
    from its locals on the line after the comparison tree."""
    after_tree = textlab._sweep_source(k).splitlines().index("        if new == t:") + 1
    names = [f"s{t}" for t in range(k)]
    filename = f"<gibbs sweep k={k}>"

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == after_tree:
            values = frame.f_locals
            draws.append(([values[name] for name in names], values["x"]))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(previous)


lda_docs = st.lists(st.lists(st.sampled_from(("w0", "w1", "w2", "w3", "w4", "w5")), max_size=12), min_size=1, max_size=6)


@given(
    docs=lda_docs.filter(lambda docs: any(docs)),
    k=st.integers(1, 9),
    alpha=st.one_of(st.none(), st.floats(0.01, 5.0)),
    beta=st.floats(0.001, 3.0),
    iterations=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
# Each topic count gets its own generated sweep; these reach past the strategy's 1..9.
@example(docs=[["w0", "w1", "w0"], ["w2"], []], k=1, alpha=None, beta=0.01, iterations=4, seed=7)
@example(docs=[["w0", "w1", "w2", "w3", "w4", "w5"] * 2, ["w5", "w4"]], k=10, alpha=0.1, beta=0.5, iterations=5, seed=11)
@example(docs=[["w0", "w1", "w2", "w3", "w4", "w5"] * 3, ["w1", "w3"] * 4], k=40, alpha=None, beta=0.01, iterations=3, seed=2**32 - 1)
def test_lda_fit_matches_numpy_sampler(docs, k, alpha, beta, iterations, seed):
    """Same counts, and the same cumulative weights and search point at every
    token update: a last-bit change in a weight rarely moves a topic, so the
    floats are compared too."""
    docs = [doc(f"d{i}", *tokens) for i, tokens in enumerate(docs)]
    draws = []
    with warnings.catch_warnings(record=True) as caught, tracing_sweep_draws(k, draws):
        warnings.simplefilter("always")
        model = lda_fit(docs, k, alpha=alpha, beta=beta, iterations=iterations, seed=seed)
    assert bool(caught) == (k > len(model.vocab))
    expected_draws = []
    phi, theta = oracle_lda_fit(docs, k, alpha=alpha, beta=beta, iterations=iterations, seed=seed, draws=expected_draws)
    assert len(draws) == iterations * sum(len(d.tokens) for d in docs)
    assert draws == expected_draws
    assert np.array_equal(model.phi, phi)
    assert np.array_equal(model.theta, theta)


@given(
    docs=lda_docs.filter(lambda docs: any(docs)),
    k=st.integers(1, 4),
    iterations=st.integers(0, 3),
    n=st.integers(0, 8),
    exclude=st.one_of(st.none(), st.sets(st.sampled_from(("w0", "w1", "w2", "w3", "w4", "w5")))),
)
def test_top_words_matches_the_pair_sort(docs, k, iterations, n, exclude):
    """Few tokens over few words give many tied probabilities."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = lda_fit([doc(f"d{i}", *tokens) for i, tokens in enumerate(docs)], k, iterations=iterations, seed=3)
    for topic in range(k):
        assert top_words(model, topic, n, exclude) == oracle_top_words(model, topic, n, exclude)


def test_each_topic_count_builds_one_sweep_kernel_when_it_first_sweeps():
    docs = [doc("d1", "w", "v", "w"), doc("d2", "v", "u")]
    textlab._sweep_kernel.cache_clear()
    lda_fit(docs, k=2, iterations=0, seed=0)
    assert textlab._sweep_kernel.cache_info().currsize == 0
    lda_fit(docs, k=2, iterations=3, seed=1)
    lda_fit(docs, k=2, iterations=1, seed=2)
    info = textlab._sweep_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("k", [2.5, "3", "1): pass\nimport os\n(2"])
def test_sweep_kernel_takes_only_an_integer_topic_count(k):
    with pytest.raises(TypeError):
        textlab._sweep_kernel(k)


# Priors that underflow every weight to 0 (5e-324), make them subnormal
# (3e-162), or overflow them to inf (1e300) send the search point to or past
# the last cumulative weight, where only the clamp leaf applies.
sweep_priors = st.one_of(st.floats(1e-3, 50.0), st.sampled_from((5e-324, 3e-162, 1e300)))


@given(
    k=st.integers(1, 12),
    tokens=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2**16)), min_size=1, max_size=20),
    alpha=sweep_priors,
    beta=sweep_priors,
    uniforms=st.lists(st.one_of(st.sampled_from((0.0, 1 - 2**-53)), st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=12),
    sweeps=st.integers(1, 4),
)
# One token alone in its doc and word: with the 5e-324 priors every weight
# less the token is 0, and with 3e-162 every weight is the same subnormal,
# which 1 - 2**-53 times the total leaves unchanged.
@example(k=40, tokens=[(0, 0, 5), (1, 1, 7), (1, 2, 39), (2, 3, 7)] * 3 + [(3, 4, 12)], alpha=5e-324, beta=5e-324, uniforms=[0.0, 0.5, 1 - 2**-53], sweeps=3)
@example(k=2, tokens=[(0, 0, 0), (1, 1, 0), (2, 2, 1)], alpha=3e-162, beta=3e-162, uniforms=[1 - 2**-53], sweeps=2)
@example(k=1000, tokens=[(d % 4, d % 5, d * 97) for d in range(20)], alpha=0.05, beta=0.01, uniforms=[0.0, 0.25, 0.999, 1 - 2**-53], sweeps=3)
def test_sweep_kernel_keeps_counts_twins_and_topics(k, tokens, alpha, beta, uniforms, sweeps):
    """The generated sweep, called on list tables: after each sweep every
    count + prior value is its integer + prior, the counts are a recount of
    the topics, and the topics are those of a ``bisect_right`` reference."""
    run_sweeps(k, tokens, alpha, beta, uniforms, sweeps)


@pytest.mark.parametrize(
    "k, tokens, prior, u",
    [(3, [(0, 0, 2)], 5e-324, 0.0), (2, [(0, 0, 0), (1, 1, 0), (2, 2, 1)], 3e-162, 1 - 2**-53), (4, [(0, 0, 1), (1, 1, 3)], 1e300, 0.5)],
)
def test_the_clamp_leaf_is_reached(k, tokens, prior, u):
    """Weights of 0, equal subnormals and inf each send ``bisect_right`` past
    the last cumulative weight; the kernel's clamp leaf gives k - 1 there."""
    assert run_sweeps(k, tokens, prior, prior, [u], 1) > 0


def run_sweeps(k, tokens, alpha, beta, uniforms, sweeps):
    """Run ``_sweep_kernel(k)`` and ``oracle_sweep`` side by side on the
    (doc, word, topic seed) tokens, with the uniforms taken in turn, checking
    the tables after each sweep; return the reference's clamped updates."""
    token_doc = [d for d, _, _ in tokens]
    token_word = [w for _, w, _ in tokens]
    topic_of = [t % k for _, _, t in tokens]
    n_docs, n_words, n = max(token_doc) + 1, max(token_word) + 1, len(tokens)
    v_beta = n_words * beta

    def recount(keys, size):
        table = [[0] * k for _ in range(size)]
        for key, t in zip(keys, topic_of):
            table[key][t] += 1
        return table

    def counts():
        return recount(token_doc, n_docs), recount(token_word, n_words), [topic_of.count(t) for t in range(k)]

    doc_rows, word_cols, totals = counts()
    doc_plus = [[c + alpha for c in row] for row in doc_rows]
    word_plus = [[c + beta for c in col] for col in word_cols]
    totals_plus = [c + v_beta for c in totals]
    tables = [(doc_rows[d], doc_plus[d], word_cols[w], word_plus[w]) for d, w in zip(token_doc, token_word)]
    ref_topics = list(topic_of)
    ref_dt, ref_wt, ref_t = counts()

    sweep = textlab._sweep_kernel(k)
    clamped = 0
    for s in range(sweeps):
        draws = [uniforms[(s * n + i) % len(uniforms)] for i in range(n)]
        sweep(tables, topic_of, totals, totals_plus, draws, alpha, beta, v_beta)
        clamped += oracle_sweep(k, token_doc, token_word, ref_topics, ref_dt, ref_wt, ref_t, draws, alpha, beta, v_beta)
        assert topic_of == ref_topics
        assert (doc_rows, word_cols, totals) == counts()
        # No count + prior value is 0 or NaN, so == compares the bits.
        assert doc_plus == [[c + alpha for c in row] for row in doc_rows]
        assert word_plus == [[c + beta for c in col] for col in word_cols]
        assert totals_plus == [c + v_beta for c in totals]
    return clamped
