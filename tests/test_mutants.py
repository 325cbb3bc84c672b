from _mutants import MUTANTS, SRC


def test_each_mutant_edits_text_that_occurs_once():
    for mutant in MUTANTS:
        assert mutant.new != mutant.old, mutant.why
        assert (SRC / mutant.file).read_text().count(mutant.old) == 1, mutant
