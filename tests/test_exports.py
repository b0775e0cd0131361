import dlogwalk


def test_all_names_resolve():
    # an export whose definition was deleted fails only at `import *`
    for name in dlogwalk.__all__:
        assert hasattr(dlogwalk, name), name
