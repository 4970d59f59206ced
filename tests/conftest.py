from hypothesis import settings

# CI runs with --hypothesis-profile=ci: a failure there prints the
# @reproduce_failure blob that replays it anywhere.
settings.register_profile("ci", print_blob=True)
