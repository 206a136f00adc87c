"""
How back-off smoothing spreads probability
==========================================

Every estimate mixes the most specific count table with progressively
coarser ones.  The mixing weight lambda is computed from the context's
own counts: frequent, low-variety contexts trust themselves; sparse,
high-variety contexts push mass down the chain.
"""

import math

from namefinder import (
    CountTables,
    NOT_A_NAME,
    Token,
    lambda_weight,
    p_next_word_from,
)

# Four observations of words following "come" inside NOT-A-NAME text:
# "here" three times and "hither" once.  Only these bigram counts are
# entered; the class's unigram level is summed from them.
tables = CountTables()
context = ("come", "lowerCase", NOT_A_NAME)
tables.word_bigrams.add(context, Token("here", "lowerCase"), 3)
tables.word_bigrams.add(context, Token("hither", "lowerCase"), 1)

c = tables.word_bigrams.total(context)
unique = tables.word_bigrams.unique(context)
lam = lambda_weight(c, 0, unique)
assert (c, unique, lam) == (4, 2, 2 / 3)
print("context count c = %d, unique outcomes = %d" % (c, unique))
print("lambda = %.6f (trust in the bigram counts)" % lam)
print("1 - lambda = %.6f (passed to the back-off level)" % (1 - lam))
print()

# The smoothed estimate for each word mixes the bigram's relative
# frequency with whatever the coarser levels say.
# The unigram level holds the same four samples as the bigram context,
# so it gets weight 0 and the rest, 1 - lambda, lands on the floor.
vocab_size = 10
floor = 1 / (vocab_size * 14)
come = Token("come", "lowerCase")
here = Token("here", "lowerCase")
for word, share in (("here", 3 / 4), ("hither", 1 / 4), ("never-seen", 0)):
    p = p_next_word_from(tables, Token(word, "lowerCase"), come,
                         NOT_A_NAME, vocab_size)
    assert math.isclose(p, lam * share + (1 - lam) * floor, rel_tol=1e-12)
    print("p(%-10s | come, NOT-A-NAME) = %.6f" % (word, p))
print()

# A context with no counts at all has lambda 0, and its mass falls to
# the class's unigram level: "here" 3 times in 4 samples, pooled over
# every previous word.
unigrams = tables.word_unigrams
assert unigrams.events((NOT_A_NAME,)) == tables.word_bigrams.events(context)
lam_u = lambda_weight(unigrams.total((NOT_A_NAME,)), 0, unigrams.unique((NOT_A_NAME,)))
p = p_next_word_from(tables, here, Token("go", "lowerCase"), NOT_A_NAME, vocab_size)
assert math.isclose(p, lam_u * 3 / 4 + (1 - lam_u) * floor, rel_tol=1e-12)
print("unseen context 'go': p(here) = %.6f = %.4f * 3/4 + %.4f * 1/(vocab * 14)"
      % (p, lam_u, 1 - lam_u))

# More data in a context raises lambda; more variety lowers it.
print()
print("lambda as counts grow (2 unique outcomes):")
for c in (2, 4, 8, 32, 128):
    print("  c = %3d -> lambda = %.4f" % (c, lambda_weight(c, 0, 2)))
print("lambda as variety grows (c = 16):")
for unique in (1, 2, 4, 8, 16):
    print("  unique = %2d -> lambda = %.4f" % (unique,
          lambda_weight(16, 0, unique)))
