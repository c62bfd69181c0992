import json

import numpy as np
import pytest

from stancelab.textlab import (
    TokenizedDoc,
    default_stopwords,
    lda_fit,
    load_stopwords,
    tokenize,
    tokenize_text,
    top_words,
    unigram_frequencies,
    write_frequency_csv,
    write_topics_json,
)
from util import make_corpus, make_tweet


def doc(doc_id, *tokens):
    return TokenizedDoc(doc_id=doc_id, tokens=tuple(tokens), hashtags_included=False)


class TestTokenize:
    def test_url_and_case_and_stopwords(self):
        tokens = tokenize_text("We need climate ACTION now! http://x.co", frozenset({"we", "now"}))
        assert tokens == ("need", "climate", "action")

    def test_all_stopwords_gives_empty(self):
        assert tokenize_text("We now", frozenset({"we", "now"})) == ()

    def test_hashtags_kept_as_atomic_tokens(self):
        stops = default_stopwords()
        tokens = tokenize_text("#ClimateHoax is a scam", stops, include_hashtags=True)
        assert tokens == ("climatehoax", "scam")

    def test_hashtags_dropped_by_default(self):
        stops = default_stopwords()
        assert tokenize_text("#ClimateHoax is a scam", stops) == ("scam",)

    def test_mentions_stripped(self):
        assert tokenize_text("@alice says hello", frozenset()) == ("says", "hello")

    def test_short_tokens_dropped(self):
        assert tokenize_text("a b cd", frozenset()) == ("cd",)

    def test_hashtag_with_underscore_stays_atomic(self):
        tokens = tokenize_text("#climate_hoax talk", frozenset(), include_hashtags=True)
        assert tokens == ("climate_hoax", "talk")

    def test_corpus_tokenize_keeps_order_and_ids(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", text="solar power wins"),
            make_tweet("t2", "u2", text=""),
        )
        docs = tokenize(corpus, frozenset())
        assert [d.doc_id for d in docs] == ["t1", "t2"]
        assert docs[0].tokens == ("solar", "power", "wins")
        assert docs[1].tokens == ()

    def test_pool_by_user_concatenates_documents(self):
        corpus = make_corpus(
            make_tweet("t1", "u1", text="solar power"),
            make_tweet("t2", "u2", text="coal lobby"),
            make_tweet("t3", "u1", text="wind farms"),
        )
        docs = tokenize(corpus, frozenset(), pool_by_user=True)
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

    @pytest.mark.parametrize("prior", [{"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"beta": -0.5}])
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
