import json
import math
import warnings
from bisect import bisect_right
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
from util import make_corpus, make_tweet, oracle_lda_fit, oracle_tokenize_text


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
        docs, _ = tokenize(corpus, frozenset())
        assert [d.doc_id for d in docs] == ["t1", "t2"]
        assert docs[0].tokens == ("solar", "power", "wins")
        assert docs[1].tokens == ()

    def test_pool_by_user_concatenates_documents(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", text="solar power"),
            make_tweet("t2", "u2", text="coal lobby"),
            make_tweet("t3", "u1", text="wind farms"),
        )
        docs, _ = tokenize(corpus, frozenset(), pool_by_user=True)
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


@given(
    st.lists(st.tuples(st.sampled_from("uvw"), texts), max_size=8),
    st.booleans(),
)
def test_tokenize_views_pool_in_first_author_order(tweets, pool_by_user):
    corpus = make_corpus(*(make_tweet(f"t{i}", user, text=text) for i, (user, text) in enumerate(tweets)))
    words, tagged = tokenize(corpus, STOPS, pool_by_user=pool_by_user)
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
        words, tagged = tokenize(corpus, STOPS)
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


lda_docs = st.lists(st.lists(st.sampled_from(("w0", "w1", "w2", "w3", "w4", "w5")), max_size=12), min_size=1, max_size=6)


@given(
    docs=lda_docs.filter(lambda docs: any(docs)),
    k=st.integers(1, 9),
    alpha=st.one_of(st.none(), st.floats(0.01, 5.0)),
    beta=st.floats(0.001, 3.0),
    iterations=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_lda_fit_matches_numpy_sampler(docs, k, alpha, beta, iterations, seed):
    """Same counts, and the same cumulative weights and search point at every
    token update: a last-bit change in a weight rarely moves a topic, so the
    floats are compared too."""
    docs = [doc(f"d{i}", *tokens) for i, tokens in enumerate(docs)]
    draws = []

    def recording_bisect(cum, point):
        draws.append((list(cum), point))
        return bisect_right(cum, point)

    with warnings.catch_warnings(record=True) as caught, patch.object(textlab, "bisect_right", recording_bisect):
        warnings.simplefilter("always")
        model = lda_fit(docs, k, alpha=alpha, beta=beta, iterations=iterations, seed=seed)
    assert bool(caught) == (k > len(model.vocab))
    expected_draws = []
    phi, theta = oracle_lda_fit(docs, k, alpha=alpha, beta=beta, iterations=iterations, seed=seed, draws=expected_draws)
    assert len(draws) == iterations * sum(len(d.tokens) for d in docs)
    assert draws == expected_draws
    assert np.array_equal(model.phi, phi)
    assert np.array_equal(model.theta, theta)
